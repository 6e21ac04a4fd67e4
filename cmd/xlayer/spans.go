package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"crosslayer"
)

// setupSpans is `xlayer spans`: it reconstructs the causal tree from a span
// log and runs the critical-path analyzer over it — per-layer wall-time
// attribution, each step's critical path through the overlapped pipeline,
// and a Chrome trace_event export loadable in Perfetto.
func setupSpans(fs *flag.FlagSet) func([]string) error {
	blame := fs.Bool("blame", false, "print the per-layer wall-time blame table")
	critical := fs.Bool("critical-path", false, "print each step's critical path through the overlapped pipeline (implies -blame)")
	chrome := fs.String("chrome", "", "write a Chrome trace_event JSON for Perfetto to this file")
	return func(args []string) error { return runSpans(args[0], *blame, *critical, *chrome) }
}

func runSpans(path string, blame, critical bool, chrome string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	spans, err := crosslayer.ReadSpans(f)
	if err != nil {
		return fmt.Errorf("spans: %s: %w", path, err)
	}
	tree, err := crosslayer.BuildSpanTree(spans)
	if err != nil {
		return fmt.Errorf("spans: %s: %w", path, err)
	}
	trace := ""
	if len(spans) > 0 {
		trace = spans[0].Trace
	}
	fmt.Printf("== span log %s ==\n", path)
	fmt.Printf("trace %s: %d spans, %d roots, %d steps\n",
		trace, len(spans), len(tree.Roots()), len(tree.StepSpans()))
	if blame || critical {
		crosslayer.WriteSpanBlameText(os.Stdout, tree.Analyze(), critical)
	} else {
		crosslayer.WriteSpanPhaseText(os.Stdout, crosslayer.SpanPhaseBreakdown(spans))
	}
	return writeArtifact(chrome, func(f io.Writer) error { return crosslayer.WriteChromeTrace(f, spans) })
}
