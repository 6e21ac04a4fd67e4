package crosslayer

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"sync"
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

// repoProgram is the repository's non-test Go code — the root module,
// examples/ and benchmarks/ — type-checked once per test binary and indexed
// by what the code does with each object, so the hygiene checks below
// resolve a use to the exact declaration it names rather than to a
// spelling. It needs no module cache and no network: the standard library
// is type-checked from GOROOT source (function bodies skipped), and the
// repository's own packages are imported from the load itself.
var repoProgram = sync.OnceValues(loadRepo)

// repoPackage is one directory's non-test package.
type repoPackage struct {
	dir   string // slash path from the repo root
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

// repoIndex is the loaded program and what its non-test code does with each
// object. Generic objects are recorded by their origin.
type repoIndex struct {
	fset   *token.FileSet
	pkgs   []*repoPackage
	byPath map[string]*repoPackage
	std    types.Importer

	named map[types.Object]bool // named by some identifier
	read  map[*types.Var]bool   // fields some selector reads: any use but an assignment target
	// setIn holds, per field, the files that set it: a composite-literal
	// key, an assignment target, or an &x.F binding.
	setIn map[*types.Var]map[string]bool
	// ifaceMethods holds, by name, the interface methods some code calls:
	// those it names, and every one the standard library declares, since
	// the library calls them itself.
	ifaceMethods map[string][]*types.Func
	mapKeys      map[types.Type]bool // struct types used as map keys: every field is compared
	// instances holds, per generic type, the instantiations the code uses.
	instances map[*types.Named][]*types.Named
}

func loadRepo() (*repoIndex, error) {
	// The source importer would run cgo for net and os/user; their pure-Go
	// form declares the same API.
	build.Default.CgoEnabled = false
	r := &repoIndex{fset: token.NewFileSet(), byPath: map[string]*repoPackage{}}
	r.std = importer.ForCompiler(r.fset, "source", nil)
	err := filepath.WalkDir(".", func(file string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if file != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		dir := filepath.Dir(file)
		if ok, err := build.Default.MatchFile(dir, name); !ok {
			return err
		}
		f, err := parser.ParseFile(r.fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		importPath := path.Join("crosslayer", filepath.ToSlash(dir))
		p := r.byPath[importPath]
		if p == nil {
			p = &repoPackage{dir: filepath.ToSlash(dir)}
			r.byPath[importPath] = p
			r.pkgs = append(r.pkgs, p)
		}
		p.files = append(p.files, f)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, p := range r.pkgs {
		if _, err := r.Import(path.Join("crosslayer", p.dir)); err != nil {
			return nil, err
		}
	}
	r.index()
	return r, nil
}

// Import type-checks a repository package on first use and hands every
// other path to the standard-library importer.
func (r *repoIndex) Import(importPath string) (*types.Package, error) {
	p := r.byPath[importPath]
	if p == nil {
		return r.std.Import(importPath)
	}
	if p.pkg == nil {
		p.info = &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		pkg, err := (&types.Config{Importer: r}).Check(importPath, r.fset, p.files, p.info)
		if err != nil {
			return nil, err
		}
		p.pkg = pkg
	}
	return p.pkg, nil
}

func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

func (r *repoIndex) index() {
	r.named = map[types.Object]bool{}
	r.read = map[*types.Var]bool{}
	r.setIn = map[*types.Var]map[string]bool{}
	r.ifaceMethods = map[string][]*types.Func{}
	r.mapKeys = map[types.Type]bool{}
	r.instances = map[*types.Named][]*types.Named{}
	std := map[*types.Package]bool{}
	for _, p := range r.pkgs {
		for _, f := range p.files {
			file := r.fset.Position(f.Pos()).Filename
			set := func(obj types.Object) {
				if v, ok := origin(obj).(*types.Var); ok && v.IsField() {
					if r.setIn[v] == nil {
						r.setIn[v] = map[string]bool{}
					}
					r.setIn[v][file] = true
				}
			}
			selected := func(e ast.Expr) types.Object {
				if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
					return p.info.Uses[sel.Sel]
				}
				return nil
			}
			targets := map[ast.Expr]bool{}
			receivers := map[*ast.Ident]bool{} // a method's receiver type is no use of the type
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					if n.Recv != nil {
						ast.Inspect(n.Recv, func(n ast.Node) bool {
							if id, ok := n.(*ast.Ident); ok {
								receivers[id] = true
							}
							return true
						})
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						targets[ast.Unparen(lhs)] = true
						set(selected(lhs))
					}
				case *ast.IncDecStmt:
					targets[ast.Unparen(n.X)] = true
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						set(selected(n.X))
					}
				case *ast.KeyValueExpr:
					if id, ok := n.Key.(*ast.Ident); ok {
						set(p.info.Uses[id])
					}
				case *ast.SelectorExpr:
					if s := p.info.Selections[n]; s != nil && s.Kind() == types.FieldVal && !targets[n] {
						r.read[origin(s.Obj()).(*types.Var)] = true
					}
				case *ast.MapType:
					if t := p.info.TypeOf(n.Key); t != nil {
						r.mapKeys[t] = true
					}
				case *ast.Ident:
					obj := origin(p.info.Uses[n])
					if obj == nil || receivers[n] || r.named[obj] {
						return true
					}
					r.named[obj] = true
					if fn, ok := obj.(*types.Func); ok && isIfaceMethod(fn) {
						r.ifaceMethods[fn.Name()] = append(r.ifaceMethods[fn.Name()], fn)
					}
				}
				return true
			})
		}
		for _, tv := range p.info.Types {
			t := tv.Type
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			if n, ok := t.(*types.Named); ok && n.TypeArgs().Len() > 0 {
				r.instances[n.Origin()] = append(r.instances[n.Origin()], n)
			}
		}
		for _, imp := range p.pkg.Imports() {
			if r.byPath[imp.Path()] == nil {
				std[imp] = true
			}
		}
	}
	scopes := []*types.Scope{types.Universe}
	for pkg := range std {
		scopes = append(scopes, pkg.Scope())
	}
	for _, scope := range scopes {
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() {
				continue
			}
			if iface, ok := tn.Type().Underlying().(*types.Interface); ok {
				for i := 0; i < iface.NumMethods(); i++ {
					m := iface.Method(i)
					r.ifaceMethods[m.Name()] = append(r.ifaceMethods[m.Name()], m)
				}
			}
		}
	}
}

func isIfaceMethod(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	return recv != nil && types.IsInterface(recv.Type())
}

// called reports whether non-test code calls fn: names it, or calls an
// interface method that fn, a concrete method, implements. The interface
// route counts only when non-test code names fn's receiver type: a type
// no program mentions has no value an interface call could reach.
func (r *repoIndex) called(fn *types.Func) bool {
	if r.named[fn] {
		return true
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil || isIfaceMethod(fn) {
		return false
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named := t.(*types.Named)
	if !r.named[named.Origin().Obj()] {
		return false
	}
	impls := []*types.Named{named}
	if named.TypeArgs().Len() > 0 { // a generic type's receiver: check what the code instantiates
		impls = r.instances[named.Origin()]
	}
	for _, im := range r.ifaceMethods[fn.Name()] {
		iface := im.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
		for _, impl := range impls {
			if types.Implements(types.NewPointer(impl), iface) {
				return true
			}
		}
	}
	return false
}

// internalKeep lists what TestInternalExportsAreReferenced would reject and
// stays anyway, each with the reason: exported names only tests use, and
// fields only tests read.
var internalKeep = map[string]string{
	"solver.PolytropicGas.TotalMass":        "conservation observable the solver tests and BenchmarkAblationReflux rest on",
	"solver.AdvectionDiffusion.TotalScalar": "conservation observable the solver tests rest on",
	"field.BoxData.Fill":                    "test fixture builder across field, staging, viz and spec tests",
	"field.BoxData.CopyCell":                "per-cell copy amr's reference ghost fill (reference_test.go) is written with",
	"field.BoxData.Axpy":                    "amr's reference blend (reference_test.go) is written with it",
	"grid.Box.Cell":                         "inverse of Box.Offset; the solver and amr reference kernels index through it",
	"grid.Box.GrowDir":                      "one-direction Grow; the solver reference kernels (reference_test.go) build face boxes with it",
	"reduce.MemCost":                        "the paper's Mem_data_reduce (Eq. 2) by name",
	"viz.Mesh.Append":                       "per-block meshes appended with it are the reference ExtractBlocks is compared against",
	"viz.Service.ExtractBlocks":             "mesh-building form of Service.Measure; the one-pass statistics are tested against its mesh",
	"amr.FluxRegister.NumFaces":             "observation hook for the register-rebuild tests",
	"core.Engine.PlanIncludes":              "observation hook for the root-leaf plan tests",
	"analysis.NewSubset":                    "the third analysis.Service; core's workflow test plugs it in through Config.Analysis",
	"staging.Space.CompactWAL":              "forces a snapshot compaction; the WAL tests and FuzzStagingSnapshot need the trigger",
	"staging.Space.TenantUsage":             "observation hook for the quota accounting and WAL usage-recovery tests",
	"staging.Space.Persisted":               "observation hook: shutdown tests assert the WAL detached",
	"obs.NewRingSink":                       "in-memory event sink the pool, core and obs tests read events back from",
	"obs.RingSink.Total":                    "NewRingSink's overflow observable",
	"obs.MetricsServer.URL":                 "what tests and operators scrape; the CLI prints the same string from Addr",
	"span.Ctx.EndErr":                       "ends a span with an error label; the tree tests build failed spans with it",
	"span.Ctx.AddDetail":                    "unused, but dropping it and its 16-byte field shrinks span.Ctx, which alone moved coupled-gas-mem step_p90 +10 % (bisected; GC phase, not work): goes with a change that may re-baseline",
	"obs.Emitter.WithWallClock":             "wall-clock stamping no shipped path enables yet (ROADMAP item 4)",
	"span.Tracer.WithWallDurations":         "wall-duration stamping no shipped path enables yet (ROADMAP item 4)",
	"span.Tracer.WallEnabled":               "reports WithWallDurations (ROADMAP item 4)",
	"solver.StepStats.Dt":                   "the step's time step; the CFL and subcycling tests and BenchmarkSubcycledStep observe it",
	"viz.Mesh.Area":                         "the mesh oracle TestMeasureMatchesMesh holds Service.Measure's area to",
	"viz.Mesh.Bytes":                        "the mesh oracle TestMeasureMatchesMesh holds Service.Measure's MeshBytes to",
	"viz.Mesh.Count":                        "the mesh oracle TestMeasureMatchesMesh holds Service.Measure's triangle count to",
	"plotfile.Read":                         "Write's round-trip reader; the plotfile tests decode what Write encoded",
	"obs.RingSink.Events":                   "the read half of NewRingSink",
	"span.MemSink":                          "the in-memory sink the span tests read spans back from",
	"span.MemSink.Spans":                    "MemSink's read half",
	"span.MemSink.Emit":                     "MemSink's span.Sink write half: the tracer emits into it in the span tests",
	"span.MemSink.Close":                    "completes span.Sink for MemSink; Tracer.Close calls it",
	"staging.WALStats.Epoch":                "fault-detection hook: the WAL tests assert a compaction bumped the epoch",
	"staging.RecoverStats.WALMissing":       "fault-detection hook: the WAL tests and FuzzStagingSnapshot assert a lost WAL was noticed",
}

// TestInternalExportsAreReferenced is the facade rule applied to internal/,
// resolved through the type checker. Non-test code somewhere in the repo —
// the root module, examples/ or benchmarks/ — must
//   - name every exported package-level name declared there (a method's
//     receiver does not name its type), and call every exported method: by
//     name, or through an interface method it implements that some code
//     calls (the standard library's count, since the library calls them)
//     when non-test code names its receiver type;
//   - call every unexported function or method, or else a test of its
//     package must name it;
//   - read every struct field: use it other than as an assignment target.
//     Fields with a struct tag (an encoded format) and fields of a struct
//     used as a map key are exempt.
//
// What fails is used only by tests, or by nothing: delete it, or add it to
// internalKeep with a reason.
func TestInternalExportsAreReferenced(t *testing.T) {
	r, err := repoProgram()
	if err != nil {
		t.Fatal(err)
	}
	var unused []string
	seen := map[string]bool{}
	reject := func(name, why string, pos token.Pos) {
		seen[name] = true
		if internalKeep[name] == "" {
			unused = append(unused, name+" ("+why+", "+r.fset.Position(pos).String()+")")
		}
	}
	testIdents := map[string]map[string]bool{} // package dir -> identifiers its tests spell
	testNames := func(p *repoPackage, name string) bool {
		if testIdents[p.dir] == nil {
			testIdents[p.dir] = identsIn(t, r.fset, p.dir)
		}
		return testIdents[p.dir][name]
	}
	checkFunc := func(p *repoPackage, qual string, fn *types.Func) {
		switch {
		case r.called(fn):
		case fn.Exported():
			reject(qual, "exported, no non-test caller", fn.Pos())
		case !testNames(p, fn.Name()):
			reject(qual, "no caller at all", fn.Pos())
		}
	}
	for _, p := range r.pkgs {
		if !strings.HasPrefix(p.dir, "internal/") {
			continue
		}
		scope := p.pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			qual := p.pkg.Name() + "." + name
			if fn, ok := obj.(*types.Func); ok {
				if name != "init" {
					checkFunc(p, qual, fn)
				}
				continue
			}
			if obj.Exported() && !r.named[obj] {
				reject(qual, "exported, named by no non-test code", obj.Pos())
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				checkFunc(p, qual+"."+m.Name(), m)
			}
			switch u := named.Underlying().(type) {
			case *types.Interface:
				for i := 0; i < u.NumExplicitMethods(); i++ {
					m := u.ExplicitMethod(i)
					checkFunc(p, qual+"."+m.Name(), m)
				}
			case *types.Struct:
				if r.mapKeys[named] {
					continue
				}
				for i := 0; i < u.NumFields(); i++ {
					f := u.Field(i)
					if !f.Embedded() && f.Name() != "_" && u.Tag(i) == "" && !r.read[f] {
						reject(qual+"."+f.Name(), "field no non-test code reads", f.Pos())
					}
				}
			}
		}
	}
	sort.Strings(unused)
	if len(unused) > 0 {
		t.Errorf("%d declarations under internal/ are used only by tests, or by nothing; delete them (with their unit tests) or add them to internalKeep with a reason:\n  %s",
			len(unused), strings.Join(unused, "\n  "))
	}
	for name := range internalKeep {
		if !seen[name] {
			t.Errorf("internalKeep lists %s, which is gone or now used; drop the entry", name)
		}
	}
}

// identsIn returns every identifier spelled in dir's test files.
func identsIn(t *testing.T, fset *token.FileSet, dir string) map[string]bool {
	t.Helper()
	tests, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	idents := map[string]bool{}
	for _, path := range tests {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				idents[id.Name] = true
			}
			return true
		})
	}
	return idents
}

// optionKeep lists the exported option fields under internal/ that no
// non-test file outside their own sets, and that stay anyway, each with the
// reason. Every other such field must be set by some caller, or become the
// constant its default always was.
var optionKeep = map[string]string{
	"amr.Config.FillRatio":                "the odd-domain kernel and amr reference tests cluster at 0.95 to get many small patches",
	"staging.ServerOptions.RequestHook":   "fault hook the shutdown and admission tests park a request in",
	"staging.ClientOptions.DialFunc":      "the net.Pipe seam the staging pin and tracing tests dial through",
	"solver.AdvDiffConfig.Velocity":       "the diffusion and upwind-branch tests need a zero and a reversed velocity",
	"solver.AdvDiffConfig.Diffusion":      "the diffusion test needs a larger coefficient to see the peak decay",
	"solver.GasConfig.RegridInterval":     "the solver tests freeze grids with 1<<30 or regrid every 2 steps",
	"solver.AdvDiffConfig.RegridInterval": "the solver tests freeze grids with 1<<30 or regrid every 2 steps",
}

// TestOptionFieldsAreSet applies the simplicity rule for options to
// internal/: an exported field of an exported *Options or *Config struct is
// an option, and an option with one value in use should be a constant. A
// field passes when some non-test file other than the one declaring it sets
// that very field — as a composite-literal key, an assignment target, or a
// &x.F flag binding — or when it sits on optionKeep with a reason. It
// under-reports a caller that sets only the default value.
func TestOptionFieldsAreSet(t *testing.T) {
	r, err := repoProgram()
	if err != nil {
		t.Fatal(err)
	}
	var unset []string
	seen := map[string]bool{}
	declared := 0
	for _, p := range r.pkgs {
		if !strings.HasPrefix(p.dir, "internal/") {
			continue
		}
		scope := p.pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || !(strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Config")) {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if !f.Exported() {
					continue
				}
				declared++
				callers := len(r.setIn[f])
				if r.setIn[f][r.fset.Position(f.Pos()).Filename] {
					callers--
				}
				if callers > 0 {
					continue
				}
				qual := p.pkg.Name() + "." + name + "." + f.Name()
				seen[qual] = true
				if optionKeep[qual] == "" {
					unset = append(unset, qual+" ("+r.fset.Position(f.Pos()).String()+")")
				}
			}
		}
	}
	if declared == 0 {
		t.Fatal("found no option fields under internal/")
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
