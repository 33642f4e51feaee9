package protocol

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
)

// writeOnlyExempt names the fields that may stay unread outside this
// package, each with the reason it stays on the wire.
var writeOnlyExempt = map[string]string{
	"InfluenceInstall.Install":  "reserved kind; bench/ names it and deletes it with the benchmark contract's next revision",
	"InfluenceInstall.Frontier": "reserved kind; bench/ names it and deletes it with the benchmark contract's next revision",
	"InfluenceInstall.Band":     "reserved kind; bench/ names it and deletes it with the benchmark contract's next revision",
	"NodeRedirect.Addr":         "MemberDeps.ClientAddrs gates redirects and partition broadcasts; its fate is decided with the replayable federation",
}

// Every field of a message or record struct is on the wire, so every one
// must have a reader: a field that the module's non-test code only ever
// writes outside this package costs bytes on every send and buys
// nothing. The check type-checks each non-test package of the module
// (bench/ and cmd/ included) against the export data `go list -export`
// leaves in the build cache, and counts a selector as a read unless it is
// only assigned to; a composite-literal key is a write.
func TestEveryMessageFieldIsRead(t *testing.T) {
	pkgs := listModule(t)
	fset := token.NewFileSet()
	exports := map[string]string{}
	for _, p := range pkgs {
		exports[p.ImportPath] = p.Export
	}
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})

	// The fields to account for: those of every exported struct type of
	// this package, which are its messages and the records they carry.
	proto, err := imp.Import("dmknn/internal/protocol")
	if err != nil {
		t.Fatal(err)
	}
	fields := map[string]bool{} // "Type.Field"
	for _, name := range proto.Scope().Names() {
		tn, ok := proto.Scope().Lookup(name).(*types.TypeName)
		if !ok || !tn.Exported() {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			fields[name+"."+st.Field(i).Name()] = true
		}
	}
	if len(fields) == 0 {
		t.Fatal("no message fields found")
	}

	read := map[string]bool{}
	for _, p := range pkgs {
		if p.Standard || p.ImportPath == "dmknn/internal/protocol" {
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
		info := &types.Info{Selections: map[*ast.SelectorExpr]*types.Selection{}}
		conf := types.Config{Importer: imp}
		if _, err := conf.Check(p.ImportPath, fset, files, info); err != nil {
			t.Fatalf("type-check %s: %v", p.ImportPath, err)
		}
		for _, f := range files {
			markReads(f, info, read)
		}
	}

	var unread []string
	for key := range fields {
		if !read[key] && writeOnlyExempt[key] == "" {
			unread = append(unread, key)
		}
	}
	slices.Sort(unread)
	for _, key := range unread {
		t.Errorf("protocol.%s is written but never read outside package protocol: delete it from the wire", key)
	}
	for key := range writeOnlyExempt {
		if !fields[key] {
			t.Errorf("exemption %s names no field; drop it", key)
		} else if read[key] {
			t.Errorf("exemption %s is read now; drop it", key)
		}
	}
}

// markReads records, as "Type.Field", every protocol struct field that f
// reads through a selector. A selector that is the whole left-hand side
// of a plain assignment is a write; one reached through embedded fields
// reads each embedded field on the way.
func markReads(f *ast.File, info *types.Info, read map[string]bool) {
	written := map[*ast.SelectorExpr]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok && as.Tok == token.ASSIGN {
			for _, lhs := range as.Lhs {
				if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
					written[sel] = true
				}
			}
		}
		return true
	})
	ast.Inspect(f, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		s := info.Selections[sel]
		if s == nil || s.Kind() != types.FieldVal {
			return true
		}
		typ := s.Recv()
		path := s.Index()
		for i, idx := range path {
			if p, ok := typ.Underlying().(*types.Pointer); ok {
				typ = p.Elem()
			}
			named, ok := typ.(*types.Named)
			st, sok := typ.Underlying().(*types.Struct)
			if !sok {
				return true
			}
			field := st.Field(idx)
			last := i == len(path)-1
			if ok && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "dmknn/internal/protocol" && !(last && written[sel]) {
				read[named.Obj().Name()+"."+field.Name()] = true
			}
			typ = field.Type()
		}
		return true
	})
}

type listedPackage struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	Standard   bool
}

// listModule lists every package of the module and its dependencies with
// their export data, building what the cache lacks.
func listModule(t *testing.T) []listedPackage {
	t.Helper()
	goCmd := filepath.Join(runtime.GOROOT(), "bin", "go")
	if _, err := os.Stat(goCmd); err != nil {
		goCmd = "go"
	}
	cmd := exec.Command(goCmd, "list", "-export", "-deps", "-json=ImportPath,Dir,Export,GoFiles,Standard", "dmknn/...")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, stderr.Bytes())
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		var p listedPackage
		if err := dec.Decode(&p); err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs
}
