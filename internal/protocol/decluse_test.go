package protocol

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// The checks below police all of internal/, not only this package's
// messages. They live beside TestEveryMessageFieldIsRead because they
// need what it needs: every non-test package of the module (the root
// package, bench/, cmd/ and examples/ included) type-checked, so that a
// use anywhere in the module counts.

// noCallerExempt names the internal/ declarations that may have no caller
// in the module's non-test code, each with the reason it stays: a test of
// some other behaviour needs it.
var noCallerExempt = map[string]string{
	"cluster.MemLink.SetLoss":                  "fault hook: the federation chaos and wire-digest tests drop peer-link messages",
	"simnet.Network.SetFaults":                 "fault hook: the chaos tests swap the fault matrix mid-run",
	"simnet.Network.SetClientDown":             "fault hook: the chaos and fan-out tests crash and revive clients",
	"simnet.Network.Duplicated":                "fault hook: the fan-out, queue and pipeline tests compare duplication counts",
	"simnet.Network.RNGBurn":                   "fault hook: the fan-out and pipeline tests prove both loss streams advanced alike",
	"simnet.Network.PendingCount":              "inspection hook: the queue and conservation tests check nothing stays queued",
	"cluster.MemLink.PendingCount":             "inspection hook: the link test checks nothing stays queued",
	"core.Method.Engine":                       "inspection hook: the core and shard tests reach the server behind a method",
	"core.Method.Agents":                       "inspection hook: the core and cluster tests reach the client agents",
	"cluster.Method.Cluster":                   "inspection hook: the federation tests reach the cluster behind a method",
	"cluster.Method.Link":                      "inspection hook: the federation tests reach the peer link to inject loss",
	"cluster.Cluster.HomeOf":                   "inspection hook: the federation tests check which node owns an object",
	"cluster.Cluster.Partition":                "inspection hook: the balancer tests read the partition version",
	"cluster.Cluster.PartitionRef":             "inspection hook: the balancer tests read the published partition",
	"cluster.Cluster.BalancerStats":            "inspection hook: the balancer tests read the decision counters",
	"cluster.Member.Node":                      "inspection hook: the member balancer tests identify members",
	"cluster.Member.Server":                    "inspection hook: the member balancer tests reach a member's server",
	"cluster.Partition.Region":                 "inspection hook: the partition and federation tests check each node's strip",
	"sim.Engine.Step":                          "inspection hook: the chaos tests drive the engine tick by tick",
	"sim.Engine.Now":                           "inspection hook: the chaos tests schedule faults by tick",
	"sim.Engine.Env":                           "inspection hook: the chaos tests read the simulated world",
	"sim.Env.ObjectByID":                       "inspection hook: the chaos and engine tests read one object's state",
	"metrics.Audit.Evaluations":                "assertion accessor: the engine tests check how many answers were audited",
	"metrics.Audit.WorstRecall":                "assertion accessor: the engine tests check every single answer's recall",
	"metrics.Counters.SentKind":                "assertion accessor: the engine tests count messages of one kind",
	"metrics.Histogram.Count":                  "assertion accessor: the observability tests check how many samples a histogram took",
	"metrics.Histogram.Max":                    "assertion accessor: the histogram tests check the largest sample",
	"metrics.Series.Len":                       "assertion accessor: the engine tests check a series has one sample per measured tick",
	"metrics.Direction.String":                 "tests print directions by name in their failure messages",
	"container/pq.BoundedMax.Len":              "assertion accessor: the top-k test checks Drain empties the accumulator",
	"grid.Grid.Len":                            "assertion accessor: the insert/remove tests count the index's entries",
	"grid.Geometry.CellsIntersecting":          "the fan-out tests' reference audience, and VisitCellsIntersecting's",
	"geo.Rect.Center":                          "the fan-out and engine tests place clients and regions at a cell's centre",
	"transport.ServerHandlerFunc":              "the medium tests hand a closure to a medium as its server handler",
	"transport.ServerHandlerFunc.HandleUplink": "the medium tests hand a closure to a medium as its server handler",
	"knn.BruteForce":                           "the reference oracle the kNN and engine tests check the grid search against",
	"obs.DumpOnFailure":                        "test helper: the chaos tests dump the flight recorder when they fail",
	"obs.Recorder.Count":                       "test helper: the chaos and golden tests check a flight recorder saw events",
	"exp.Table.Column":                         "the recall-floor and experiment tests read a table column by name",
}

// noSetterExempt names the Config, Options and Deps fields that no
// non-test code sets, each with the reason the setting stays.
var noSetterExempt = map[string]string{
	"cluster.LinkConfig.LatencyTicks":  "fault setting: the federation wire-digest rows run the peer link at latency 1",
	"cluster.LinkConfig.Seed":          "fault setting: seeds the peer link's loss stream in the chaos tests",
	"simnet.FaultConfig.DuplicateProb": "fault setting: the fan-out, queue and chaos tests duplicate messages",
	"simnet.FaultConfig.JitterTicks":   "fault setting: the fan-out, queue and chaos tests jitter delivery",
}

// unreadExempt names the internal/ struct fields that no non-test code
// reads, each with the reason the field stays.
var unreadExempt = map[string]string{
	"model.QuerySpec.Pos":            "bench/ sets it; it goes with the benchmark contract's next revision",
	"model.QuerySpec.Vel":            "bench/ sets it; it goes with the benchmark contract's next revision",
	"shard.Options.Batched":          "bench/ sets it; it goes with the benchmark contract's next revision",
	"transport.BroadcastItem.Region": "bench/ names the type, whose Msg it reads; it goes with the benchmark contract's next revision",
}

// checkedPackage is one non-test package of the module, type-checked
// from source.
type checkedPackage struct {
	path  string
	files []*ast.File
	info  *types.Info
}

// TestEveryDeclarationIsUsed holds internal/ to three rules, each with
// its exemption table; an exemption that names nothing, or whose name
// now follows the rule, fails too.
//   - Every top-level func, method, type, const and var has a caller: a
//     use in some non-test file of the module outside its own
//     declaration. A method is also used when a value of its type is
//     converted to an interface that declares it (in the module or the
//     standard library, named or anonymous), since a type assertion or
//     the standard library may then call it.
//   - Every field of a struct type named …Config, …Options or …Deps is
//     set by some non-test code, by a composite literal or an assignment.
//   - Every struct field is read by some non-test code (markReads).
func TestEveryDeclarationIsUsed(t *testing.T) {
	pkgs, stdIfaces := checkModule(t)

	// Declarations, their names and extents.
	name := map[types.Object]string{}
	extent := map[types.Object]ast.Node{}
	fields := map[*types.Var]string{}
	settings := map[*types.Var]bool{}
	declare := func(obj types.Object, n ast.Node) {
		if obj == nil || obj.Name() == "_" || obj.Name() == "init" {
			return
		}
		key := qualified(obj)
		if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
			key = qualified(recvType(sig).Obj()) + "." + obj.Name()
		}
		name[obj], extent[obj] = key, n
	}
	for _, p := range pkgs {
		if !strings.HasPrefix(p.path, "dmknn/internal/") {
			continue
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					declare(p.info.Defs[d.Name], d)
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							tn := p.info.Defs[s.Name]
							declare(tn, s)
							st, ok := tn.Type().Underlying().(*types.Struct)
							if !ok {
								continue
							}
							setting := strings.HasSuffix(tn.Name(), "Config") || strings.HasSuffix(tn.Name(), "Options") || strings.HasSuffix(tn.Name(), "Deps")
							for i := 0; i < st.NumFields(); i++ {
								fields[st.Field(i)] = qualified(tn) + "." + st.Field(i).Name()
								settings[st.Field(i)] = setting
							}
						case *ast.ValueSpec:
							for _, n := range s.Names {
								declare(p.info.Defs[n], s)
							}
						}
					}
				}
			}
		}
	}

	used := map[types.Object]bool{}
	set := map[*types.Var]bool{}
	read := map[string]bool{}
	converted := map[types.Type]bool{}
	ifaces := slices.Clone(stdIfaces)
	for _, p := range pkgs {
		var recv []ast.Node // receiver lists: a method's receiver does not use its type
		for _, f := range p.files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
					recv = append(recv, fd.Recv)
				}
			}
			markReads(f, p.info, read)
			markSets(f, p.info, set)
			conversions(f, p.info, func(from, to types.Type) {
				if types.IsInterface(to) && !types.IsInterface(from) {
					converted[from] = true
				}
			})
		}
		for id, obj := range p.info.Uses {
			obj = origin(obj)
			if n := extent[obj]; n != nil && within(id, n) || slices.ContainsFunc(recv, func(n ast.Node) bool { return within(id, n) }) {
				continue
			}
			used[obj] = true
		}
		for _, inst := range p.info.Instances {
			for i := 0; i < inst.TypeArgs.Len(); i++ {
				converted[inst.TypeArgs.At(i)] = true
			}
		}
		for _, tv := range p.info.Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				ifaces = append(ifaces, it)
			}
		}
	}
	for c := range converted {
		for _, it := range ifaces {
			if !types.Implements(c, it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				if obj, path, _ := types.LookupFieldOrMethod(c, true, m.Pkg(), m.Name()); obj != nil {
					used[origin(obj)] = true
					readPath(c, path[:len(path)-1], read)
				}
			}
		}
	}

	t.Run("caller", func(t *testing.T) {
		follows := map[string]bool{}
		for obj, key := range name {
			follows[key] = used[obj]
		}
		judge(t, follows, noCallerExempt, "has no caller outside tests: delete it")
	})
	t.Run("setter", func(t *testing.T) {
		follows := map[string]bool{}
		for v, key := range fields {
			if settings[v] {
				follows[key] = set[v]
			}
		}
		judge(t, follows, noSetterExempt, "is never set outside tests: delete the setting")
	})
	t.Run("reader", func(t *testing.T) {
		follows := map[string]bool{}
		for _, key := range fields {
			follows[key] = read[key]
		}
		judge(t, follows, unreadExempt, "is never read outside tests: delete the field")
	})
}

// judge reports every name that breaks its rule and has no exemption, and
// every exemption that names nothing or whose name follows the rule.
func judge(t *testing.T, follows map[string]bool, exempt map[string]string, breach string) {
	t.Helper()
	var bad []string
	for key, ok := range follows {
		if !ok && exempt[key] == "" {
			bad = append(bad, key)
		}
	}
	slices.Sort(bad)
	for _, key := range bad {
		t.Errorf("%s %s", key, breach)
	}
	for key := range exempt {
		if ok, found := follows[key]; !found {
			t.Errorf("exemption %s names nothing; drop it", key)
		} else if ok {
			t.Errorf("exemption %s is satisfied now; drop it", key)
		}
	}
}

// checkModule type-checks every non-test package of the module from
// source, dependencies first, so that all of them share one set of type
// objects; the standard library comes from export data. It also returns
// every interface the standard library declares.
func checkModule(t *testing.T) ([]checkedPackage, []*types.Interface) {
	t.Helper()
	listed := listModule(t)
	fset := token.NewFileSet()
	exports := map[string]string{}
	for _, p := range listed {
		exports[p.ImportPath] = p.Export
	}
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p := checked[path]; p != nil {
			return p, nil
		}
		return std.Import(path)
	})

	var pkgs []checkedPackage
	var ifaces []*types.Interface
	for _, p := range listed { // go list -deps lists dependencies first
		if p.Standard {
			sp, err := std.Import(p.ImportPath)
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range sp.Scope().Names() {
				if it, ok := sp.Scope().Lookup(n).Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					ifaces = append(ifaces, it)
				}
			}
			continue
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Instances:  map[*ast.Ident]types.Instance{},
		}
		pkg, err := (&types.Config{Importer: imp}).Check(p.ImportPath, fset, files, info)
		if err != nil {
			t.Fatalf("type-check %s: %v", p.ImportPath, err)
		}
		checked[p.ImportPath] = pkg
		pkgs = append(pkgs, checkedPackage{p.ImportPath, files, info})
	}
	ifaces = append(ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	return pkgs, ifaces
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// qualified names an internal/ object relative to this package, as
// "Name" here and "pkg.Name" elsewhere.
func qualified(obj types.Object) string {
	if p := obj.Pkg().Path(); p != "dmknn/internal/protocol" {
		return strings.TrimPrefix(p, "dmknn/internal/") + "." + obj.Name()
	}
	return obj.Name()
}

// recvType is the named type whose method sig is.
func recvType(sig *types.Signature) *types.Named {
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// origin maps an instantiated generic object to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

func within(id *ast.Ident, n ast.Node) bool { return n.Pos() <= id.Pos() && id.Pos() < n.End() }

// markSets records every struct field that f sets: a composite-literal
// element, or the target of an assignment, an increment or an address-of.
func markSets(f *ast.File, info *types.Info, set map[*types.Var]bool) {
	target := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			if v, ok := info.Uses[sel.Sel].(*types.Var); ok && v.IsField() {
				set[v.Origin()] = true
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			st, ok := deref(info.TypeOf(n)).Underlying().(*types.Struct)
			if !ok {
				break
			}
			for i, e := range n.Elts {
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					if v, ok := info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
						set[v.Origin()] = true
					}
				} else {
					set[st.Field(i).Origin()] = true
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				target(lhs)
			}
		case *ast.IncDecStmt:
			target(n.X)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				target(n.X)
			}
		}
		return true
	})
}

func deref(t types.Type) types.Type {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// conversions calls conv for every value f's code gives to a variable,
// parameter, result, element, field or channel of a possibly other type:
// the places Go converts a value to an interface implicitly, and explicit
// conversions.
func conversions(f *ast.File, info *types.Info, conv func(from, to types.Type)) {
	give := func(e ast.Expr, to types.Type) {
		if tv, ok := info.Types[e]; ok && tv.Type != nil && to != nil && !tv.IsNil() {
			conv(tv.Type, to)
		}
	}
	// giveAll gives values to targets, one to one or from one call's
	// results.
	giveAll := func(values []ast.Expr, to func(i int) types.Type, n int) {
		if tuple, ok := info.TypeOf(values[0]).(*types.Tuple); ok && len(values) == 1 {
			for i := 0; i < tuple.Len() && i < n; i++ {
				if t := to(i); t != nil {
					conv(tuple.At(i).Type(), t)
				}
			}
			return
		}
		for i, v := range values {
			if i < n {
				give(v, to(i))
			}
		}
	}
	var stack []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		switch n := n.(type) {
		case *ast.AssignStmt:
			giveAll(n.Rhs, func(i int) types.Type { return info.TypeOf(n.Lhs[i]) }, len(n.Lhs))
		case *ast.ValueSpec:
			if n.Type != nil {
				for _, v := range n.Values {
					give(v, info.TypeOf(n.Type))
				}
			}
		case *ast.CallExpr:
			fun := info.Types[n.Fun]
			if fun.IsType() {
				give(n.Args[0], fun.Type)
				break
			}
			if fun.Type == nil {
				break
			}
			sig, ok := fun.Type.Underlying().(*types.Signature)
			if !ok {
				break
			}
			if len(n.Args) == 0 {
				break
			}
			last := sig.Params().Len() - 1
			giveAll(n.Args, func(i int) types.Type {
				if sig.Variadic() && i >= last && !n.Ellipsis.IsValid() {
					return sig.Params().At(last).Type().(*types.Slice).Elem()
				}
				return sig.Params().At(min(i, last)).Type()
			}, len(n.Args))
		case *ast.ReturnStmt:
			for i := len(stack) - 2; i >= 0; i-- {
				var sig *types.Signature
				switch fn := stack[i].(type) {
				case *ast.FuncDecl:
					sig = info.Defs[fn.Name].Type().(*types.Signature)
				case *ast.FuncLit:
					sig = info.TypeOf(fn).(*types.Signature)
				default:
					continue
				}
				if len(n.Results) > 0 {
					giveAll(n.Results, func(j int) types.Type { return sig.Results().At(j).Type() }, sig.Results().Len())
				}
				break
			}
		case *ast.CompositeLit:
			switch u := deref(info.TypeOf(n)).Underlying().(type) {
			case *types.Struct:
				for i, e := range n.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						if v, ok := info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
							give(kv.Value, v.Type())
						}
					} else {
						give(e, u.Field(i).Type())
					}
				}
			case *types.Slice, *types.Array, *types.Map:
				elem := u.(interface{ Elem() types.Type }).Elem()
				for _, e := range n.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						if m, ok := u.(*types.Map); ok {
							give(kv.Key, m.Key())
						}
						e = kv.Value
					}
					give(e, elem)
				}
			}
		case *ast.SendStmt:
			if ch, ok := info.TypeOf(n.Chan).Underlying().(*types.Chan); ok {
				give(n.Value, ch.Elem())
			}
		}
		return true
	})
}
