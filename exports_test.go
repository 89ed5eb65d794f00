package quicbench

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// exportAllowlist names the exported functions and methods under internal/
// that no non-test file calls, each with the reason it stays. Keys are
// "<package dir>.<Name>" for functions and "<package dir>.<Recv>.<Name>"
// for methods.
var exportAllowlist = map[string]string{
	// Closed forms that statistical tests compare sampled behaviour with.
	"internal/faults.GilbertElliott.MeanLoss": "closed form the burst-loss oracle test compares the channel against",
	"internal/stats.BoundedPareto.Mean":       "closed form the flow-size sampler test compares against",
	"internal/stats.BoundedPareto.Quantile":   "closed form the flow-size sampler test compares against",
	// References the production paths are checked against.
	"internal/trace.Trace.Recorder": "in-memory reference the stream recorder's CSV is checked against",
	"internal/trace.Trace.WriteCSV": "in-memory reference the stream recorder's CSV is checked against",
	// The observation seam of traffic's external-package churn-invariant test.
	"internal/traffic.Engine.Active":        "churn-invariant test seam: live-flow count",
	"internal/traffic.Engine.ForEachActive": "churn-invariant test seam: per-flow walk",
	"internal/traffic.Engine.Sim":           "churn-invariant test seam: schedules the probes",
	"internal/transport.Sender.Controller":  "churn-invariant test seam: reads each flow's cwnd",
	"internal/runner.SweepResult.Count":     "outcome tally the runner, core, dist and isolate tests assert on",
	"internal/telemetry.Counter.Add":        "registry write API the registry and obs tests drive",
	"internal/telemetry.Gauge.Set":          "registry write API the registry and obs tests drive",
	// Library primitives with their own unit tests and no caller yet.
	"internal/geom.Polygon.Centroid": "geometry primitive with its own unit test",
	"internal/sim.Engine.After":      "scheduling primitive with its own unit tests",
	"internal/stats.Max":             "summary primitive with its own unit test",
	"internal/stats.Sum":             "summary primitive with its own unit test",
	"internal/stats.RNG.Jitter":      "variate primitive with its own unit test",
}

// implicitMethods are called by the standard library through its own
// interfaces (error, fmt.Stringer, errors.Is/Unwrap, json.Marshaler), never
// by name in this module.
var implicitMethods = map[string]bool{
	"Error": true, "Unwrap": true, "Is": true, "String": true,
	"MarshalJSON": true, "UnmarshalJSON": true,
}

// module is the import path of the repository root package.
const module = "repro"

// modulePackages type-checks every package of the module from its non-test
// files alone, so a use recorded here is a use by program code.
type modulePackages struct {
	fset  *token.FileSet
	std   types.Importer
	files map[string][]*ast.File // by import path
	pkgs  map[string]*types.Package
	info  *types.Info
}

func (m *modulePackages) Import(path string) (*types.Package, error) {
	if m.files[path] == nil {
		return m.std.Import(path)
	}
	if p := m.pkgs[path]; p != nil {
		return p, nil
	}
	conf := types.Config{Importer: m}
	p, err := conf.Check(path, m.fset, m.files[path], m.info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", path, err)
	}
	m.pkgs[path] = p
	return p, nil
}

// TestNoTestOnlyExports fails when an exported function or method declared
// in a non-test file under internal/ is used by no non-test file outside its
// own body: such an export is test scaffolding posing as API. benchmark/
// counts as a caller. A method counts as used when it is called directly or
// when the module calls the interface method it implements.
func TestNoTestOnlyExports(t *testing.T) {
	m := &modulePackages{
		fset:  token.NewFileSet(),
		std:   importer.Default(),
		files: map[string][]*ast.File{},
		pkgs:  map[string]*types.Package{},
		info: &types.Info{
			Defs: map[*ast.Ident]types.Object{},
			Uses: map[*ast.Ident]types.Object{},
		},
	}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(m.fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := module
		if dir := filepath.ToSlash(filepath.Dir(path)); dir != "." {
			pkg += "/" + dir
		}
		m.files[pkg] = append(m.files[pkg], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for path := range m.files {
		if _, err := m.Import(path); err != nil {
			t.Fatal(err)
		}
	}

	// The exported declarations under internal/, with the span of each
	// body so a recursive call does not count as a use.
	type decl struct {
		key        string
		pos, end   token.Pos
		recvMethod bool
	}
	decls := map[*types.Func]decl{}
	for path, files := range m.files {
		dir := strings.TrimPrefix(path, module+"/")
		if !strings.HasPrefix(dir, "internal/") {
			continue
		}
		for _, f := range files {
			for _, d := range f.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok || !fn.Name.IsExported() {
					continue
				}
				obj := m.info.Defs[fn.Name].(*types.Func)
				key := dir + "." + fn.Name.Name
				if fn.Recv != nil {
					if implicitMethods[fn.Name.Name] {
						continue
					}
					named := obj.Type().(*types.Signature).Recv().Type()
					if p, ok := named.(*types.Pointer); ok {
						named = p.Elem()
					}
					key = dir + "." + named.(*types.Named).Obj().Name() + "." + fn.Name.Name
				}
				decls[obj] = decl{key: key, pos: fn.Pos(), end: fn.End(), recvMethod: fn.Recv != nil}
			}
		}
	}

	used := map[*types.Func]bool{}
	var ifaceCalls []*types.Func // interface methods the module calls
	for id, obj := range m.info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		fn = fn.Origin()
		if d, ok := decls[fn]; ok && id.Pos() >= d.pos && id.Pos() < d.end {
			continue
		}
		used[fn] = true
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
			ifaceCalls = append(ifaceCalls, fn)
		}
	}
	implements := func(fn *types.Func) bool {
		recv := fn.Type().(*types.Signature).Recv().Type()
		if _, ok := recv.(*types.Pointer); !ok {
			recv = types.NewPointer(recv)
		}
		for _, im := range ifaceCalls {
			if im.Name() != fn.Name() {
				continue
			}
			iface := im.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
			if types.Implements(recv, iface) {
				return true
			}
		}
		return false
	}

	var dead []string
	seen := map[string]bool{}
	for fn, d := range decls {
		seen[d.key] = true
		live := used[fn] || (d.recvMethod && implements(fn))
		switch reason := exportAllowlist[d.key]; {
		case !live && reason == "":
			dead = append(dead, m.fset.Position(d.pos).String()+": "+d.key)
		case live && reason != "":
			t.Errorf("allowlist entry %s is used by program code; drop the entry", d.key)
		}
	}
	sort.Strings(dead)
	for _, s := range dead {
		t.Errorf("exported but used only by tests: %s (delete it, or fold it into the test that needs it)", s)
	}
	for key := range exportAllowlist {
		if !seen[key] {
			t.Errorf("allowlist entry %s names no exported declaration; drop the entry", key)
		}
	}
}
