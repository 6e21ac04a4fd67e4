package crosslayer

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestFacadeExportsAreReferenced keeps crosslayer.go honest: every exported
// name it declares must be used by something a user can run or read — a
// command under cmd/, an example, or a root-package test. A re-export nobody
// spells is API surface with no caller to break and no test to pin it;
// delete it (importers inside this module reach internal/ directly).
func TestFacadeExportsAreReferenced(t *testing.T) {
	fset := token.NewFileSet()
	facade, err := parser.ParseFile(fset, "crosslayer.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var exported []string
	for _, decl := range facade.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil && d.Name.IsExported() {
				exported = append(exported, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						exported = append(exported, s.Name.Name)
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.IsExported() {
							exported = append(exported, n.Name)
						}
					}
				}
			}
		}
	}
	if len(exported) == 0 {
		t.Fatal("found no exported declarations in crosslayer.go")
	}

	// Users: main packages spell crosslayer.Name; root-package tests may
	// also spell the bare Name.
	used := map[string]bool{}
	collect := func(path string, bare bool) {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				// other.Name is some other package's (or value's) Name.
				if x, ok := n.X.(*ast.Ident); ok && x.Name == "crosslayer" {
					used[n.Sel.Name] = true
				}
				ast.Inspect(n.X, visit)
				return false
			case *ast.Ident:
				if bare {
					used[n.Name] = true
				}
			}
			return true
		}
		ast.Inspect(f, visit)
	}
	for _, root := range []string{"cmd", "examples"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") {
				collect(path, false)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	tests, err := filepath.Glob("*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range tests {
		collect(path, true)
	}

	var unused []string
	for _, name := range exported {
		if !used[name] {
			unused = append(unused, name)
		}
	}
	sort.Strings(unused)
	if len(unused) > 0 {
		t.Errorf("%d of %d exported names in crosslayer.go are referenced by nothing in cmd/, examples/ or the root tests:\n  %s",
			len(unused), len(exported), strings.Join(unused, "\n  "))
	}
}

// internalKeep lists the exported functions under internal/ that no non-test
// code names and that stay anyway, each with the reason. Everything else
// exported there must be named by some non-test file, or be deleted.
var internalKeep = map[string]string{
	"PolytropicGas.TotalMass":        "conservation observable the solver tests and BenchmarkAblationReflux rest on",
	"AdvectionDiffusion.TotalScalar": "conservation observable the solver tests rest on",
	"Hierarchy.FillGhost":            "allocating form of FillGhostInto; reference for the ghost-fill differential tests",
	"Hierarchy.FillGhostBlended":     "allocating form of FillGhostBlendedInto; reference for the subcycling tests",
	"BoxData.Fill":                   "test fixture builder across field, staging, viz and spec tests",
	"BoxData.CopyCell":               "per-cell copy amr's reference ghost fill (reference_test.go) is written with",
	"BoxData.Axpy":                   "amr's reference blend (reference_test.go) is written with it",
	"Box.Cell":                       "inverse of Box.Offset; the solver and amr reference kernels index through it",
	"Box.GrowDir":                    "one-direction Grow; the solver reference kernels (reference_test.go) build face boxes with it",
	"Restrict":                       "allocating form of RestrictInto; the conservation tests drive it",
	"EntropyPlan.ApplyPlan":          "applies a decided plan; reduce's tests check plan and result separately",
	"MemCost":                        "the paper's Mem_data_reduce (Eq. 2) by name",
	"Mesh.Append":                    "per-block meshes appended with it are the reference ExtractBlocks is compared against",
	"Service.ExtractBlocks":          "mesh-building form of Service.Measure; the one-pass statistics are tested against its mesh",
	"FluxRegister.NumFaces":          "observation hook for the register-rebuild tests",
	"Engine.PlanIncludes":            "observation hook for the root-leaf plan tests",
	"NewSubset":                      "the third analysis.Service; core's workflow test plugs it in through Config.Analysis",
	"Space.ContentManifest":          "unsized form of ContentManifestSized; what the concurrent-pool tests compare",
	"Space.CompactWAL":               "forces a snapshot compaction; the WAL tests and FuzzStagingSnapshot need the trigger",
	"Space.TenantUsage":              "observation hook for the quota accounting and WAL usage-recovery tests",
	"Space.Persisted":                "observation hook: shutdown tests assert the WAL detached",
	"NewRingSink":                    "in-memory event sink the pool, core and obs tests read events back from",
	"RingSink.Total":                 "NewRingSink's overflow observable",
	"MetricsServer.URL":              "what tests and operators scrape; the CLI prints the same string from Addr",
	"Ctx.EndErr":                     "ends a span with an error label; the tree tests build failed spans with it",
	"Ctx.AddDetail":                  "unused, but dropping it and its 16-byte field shrinks span.Ctx, which alone moved coupled-gas-mem step_p90 +10 % (bisected in PR 22; GC phase, not work): goes with a PR that may re-baseline",
	"Emitter.WithWallClock":          "wall-clock stamping no shipped path enables yet (ROADMAP item 4)",
	"Tracer.WithWallDurations":       "wall-duration stamping no shipped path enables yet (ROADMAP item 4)",
	"Tracer.WallEnabled":             "reports WithWallDurations (ROADMAP item 4)",
}

// TestInternalExportsAreReferenced is the facade rule applied to internal/:
// an exported function or method (on an exported type) there must be named
// by non-test code somewhere in the repo — the root module, examples/ or
// benchmarks/ — or sit on internalKeep with a reason. It matches by bare
// identifier, so it under-reports (any same-named identifier counts); what
// it does flag is referenced only by tests, or by nothing.
func TestInternalExportsAreReferenced(t *testing.T) {
	uses := map[string]int{}
	type fn struct{ name, ident, path string }
	var declared []fn
	walkNonTestGo(t, func(path string, f *ast.File) {
		own := map[*ast.Ident]bool{}
		for _, decl := range f.Decls {
			d, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			own[d.Name] = true
			if !d.Name.IsExported() || !strings.HasPrefix(path, "internal/") {
				continue
			}
			name := d.Name.Name
			if d.Recv != nil {
				recv := d.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				id, ok := recv.(*ast.Ident)
				if !ok || !id.IsExported() {
					continue
				}
				name = id.Name + "." + name
			}
			declared = append(declared, fn{name, d.Name.Name, path})
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !own[id] {
				uses[id.Name]++
			}
			return true
		})
	})

	var unused []string
	seen := map[string]bool{}
	for _, d := range declared {
		if uses[d.ident] > 0 {
			continue
		}
		seen[d.name] = true
		if internalKeep[d.name] == "" {
			unused = append(unused, d.name+" ("+d.path+")")
		}
	}
	sort.Strings(unused)
	if len(unused) > 0 {
		t.Errorf("%d exported functions under internal/ are named by no non-test code; delete them (with their unit tests) or add them to internalKeep with a reason:\n  %s",
			len(unused), strings.Join(unused, "\n  "))
	}
	for name := range internalKeep {
		if !seen[name] {
			t.Errorf("internalKeep lists %s, which is gone or now referenced; drop the entry", name)
		}
	}
}

// walkNonTestGo parses every non-test Go file in the repo — the root module,
// examples/ and benchmarks/ — and hands each to visit with its slash path.
func walkNonTestGo(t *testing.T, visit func(path string, f *ast.File)) {
	t.Helper()
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		visit(filepath.ToSlash(path), f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// optionKeep lists the exported option fields under internal/ that no
// non-test file outside their own sets, and that stay anyway, each with the
// reason. Every other such field must be set by some caller, or become the
// constant its default always was.
var optionKeep = map[string]string{
	"amr.Config.FillRatio":              "the odd-domain kernel and amr reference tests cluster at 0.95 to get many small patches",
	"staging.ServerOptions.RequestHook": "fault hook the shutdown and admission tests park a request in",
	"staging.ClientOptions.DialFunc":    "the net.Pipe seam the staging pin and tracing tests dial through",
	"solver.AdvDiffConfig.Velocity":     "the diffusion and upwind-branch tests need a zero and a reversed velocity",
	"solver.AdvDiffConfig.Diffusion":    "the diffusion test needs a larger coefficient to see the peak decay",
}

// TestOptionFieldsAreSet applies the simplicity rule for options to
// internal/: an exported field of an exported *Options or *Config struct is
// an option, and an option with one value in use should be a constant. A
// field passes when some non-test file other than the one declaring it sets
// it — as a composite-literal key, an assignment target, or a &x.F flag
// binding — or when it sits on optionKeep with a reason. It matches by bare
// field name, so it under-reports (a same-named field set elsewhere counts,
// and so does a caller that sets only the default value).
func TestOptionFieldsAreSet(t *testing.T) {
	type option struct{ name, field, path string }
	var declared []option
	setIn := map[string]map[string]bool{} // field name -> files that set it
	set := func(id *ast.Ident, path string) {
		if setIn[id.Name] == nil {
			setIn[id.Name] = map[string]bool{}
		}
		setIn[id.Name][path] = true
	}
	walkNonTestGo(t, func(path string, f *ast.File) {
		if strings.HasPrefix(path, "internal/") {
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.TYPE {
					continue
				}
				for _, spec := range gd.Specs {
					ts := spec.(*ast.TypeSpec)
					st, ok := ts.Type.(*ast.StructType)
					if !ok || !ts.Name.IsExported() ||
						!(strings.HasSuffix(ts.Name.Name, "Options") || strings.HasSuffix(ts.Name.Name, "Config")) {
						continue
					}
					for _, fld := range st.Fields.List {
						for _, n := range fld.Names {
							if n.IsExported() {
								name := f.Name.Name + "." + ts.Name.Name + "." + n.Name
								declared = append(declared, option{name, n.Name, path})
							}
						}
					}
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.KeyValueExpr:
				if id, ok := n.Key.(*ast.Ident); ok {
					set(id, path)
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok {
						set(sel.Sel, path)
					}
				}
			case *ast.UnaryExpr:
				if sel, ok := n.X.(*ast.SelectorExpr); ok && n.Op == token.AND {
					set(sel.Sel, path)
				}
			}
			return true
		})
	})
	if len(declared) == 0 {
		t.Fatal("found no option fields under internal/")
	}

	var unset []string
	seen := map[string]bool{}
	for _, o := range declared {
		callers := len(setIn[o.field])
		if setIn[o.field][o.path] {
			callers--
		}
		if callers > 0 {
			continue
		}
		seen[o.name] = true
		if optionKeep[o.name] == "" {
			unset = append(unset, o.name+" ("+o.path+")")
		}
	}
	sort.Strings(unset)
	if len(unset) > 0 {
		t.Errorf("%d option fields under internal/ are set by no non-test caller; make each the constant it always was or add it to optionKeep with a reason:\n  %s",
			len(unset), strings.Join(unset, "\n  "))
	}
	for name := range optionKeep {
		if !seen[name] {
			t.Errorf("optionKeep lists %s, which is gone or now set by a caller; drop the entry", name)
		}
	}
}
