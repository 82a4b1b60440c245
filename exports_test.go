package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// testOnlyAllowed lists the exported identifiers of internal/ that no
// non-test file references, each kept on purpose. Keys are "importpath.Name"
// for package-level names and "importpath.Type.Name" for methods and fields.
var testOnlyAllowed = map[string]string{
	"repro/internal/tensor.Ones":                            "tensor helper the nn layer tests build inputs with",
	"repro/internal/tensor.Tensor.AddScalar":                "tensor helper the nn layer tests shift inputs with",
	"repro/internal/tensor.Tensor.Dot":                      "tensor helper the nn gradient checks project with",
	"repro/internal/tensor.Tensor.FillUniform":              "tensor helper the nn layer tests fill inputs with",
	"repro/internal/tensor.Tensor.Lerp":                     "tensor algebra no command reaches, kept with its floor unit test TestLerp",
	"repro/internal/tensor.Tensor.Set":                      "tensor algebra no command reaches, kept with its floor unit test TestAtSetRoundTrip",
	"repro/internal/tensor.Tensor.Sum":                      "tensor algebra no command reaches, kept with its floor unit tests TestSumDotNorm and TestSumLinearityProperty",
	"repro/internal/tensor.Tensor.HasNaN":                   "tensor helper the models and opt tests check outputs with",
	"repro/internal/tensor.Tensor.MaxAbs":                   "tensor helper the nn invariance tests measure with",
	"repro/internal/tensor.Tensor.SameShape":                "tensor helper the data tests compare batches with",
	"repro/internal/tensor.Tensor.Sub":                      "tensor helper the opt tests take weight deltas with",
	"repro/internal/checkpoint.Checkpoint.CaptureOneBit":    "ROADMAP 5a resume: the resume tests drive it until a command writes checkpoints",
	"repro/internal/checkpoint.Checkpoint.RestoreOneBit":    "ROADMAP 5a resume",
	"repro/internal/checkpoint.Checkpoint.CaptureLossScale": "ROADMAP 5a resume",
	"repro/internal/checkpoint.Checkpoint.RestoreLossScale": "ROADMAP 5a resume",
	"repro/internal/checkpoint.Checkpoint.Save":             "ROADMAP 5a resume",
	"repro/internal/opt.SGD.Velocity":                       "ROADMAP 5a resume: the checkpoint resume test reads the momentum buffer",
	"repro/internal/opt.LARS.TrustRatios":                   "the trust-ratio test reads LARS's per-layer local rate",
	"repro/internal/nn.Accuracy":                            "top-1 accuracy of logits, the metric the model and engine tests score with",
	"repro/internal/nn.NewAvgPool":                          "benchmark/ names nn.AvgPool2D; this is its constructor",
	"repro/internal/dist.OverlapStats.Rounds":               "the rounds half of the invariant Overlap.Rounds() == Comm.Steps the dist and comm tests assert",
	"repro/internal/models.ModelSpec.TrainFLOPsPerImageAt":  "benchmark/'s smoke test calls it, so its signature is frozen",
}

// implicitMethods are called through standard-library interfaces, never by
// name, so a missing reference says nothing about them.
var implicitMethods = map[string]bool{"String": true, "Error": true, "Unwrap": true, "Format": true}

// TestNoTestOnlyExports fails on any exported identifier declared under
// internal/ that no non-test file of the repository (commands, examples,
// benchmark/, the facade, other packages) references: code nothing runs is
// deleted, not exported for its own tests. References are matched
// syntactically — a package-level name by its import path, a method or field
// by its name on any selector or composite-literal key — so the check errs
// towards keeping a name.
func TestNoTestOnlyExports(t *testing.T) {
	type decl struct {
		key    string // "path.Name" or "path.Type.Name"
		member string // Name, for methods and fields
		pos    token.Position
	}
	var decls []decl
	uses := map[string]bool{}       // package-level "path.Name" referenced
	memberUses := map[string]bool{} // method or field name referenced
	fset := token.NewFileSet()

	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata"):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go"):
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(p))
		pkgPath := path.Join("repro", dir)
		add := func(key, member string, at token.Pos) {
			if strings.HasPrefix(dir, "internal/") {
				decls = append(decls, decl{key, member, fset.Position(at)})
			}
		}

		// Declaring identifiers, and a method's receiver type, are not uses.
		declared := map[*ast.Ident]bool{}
		for _, dcl := range f.Decls {
			switch dcl := dcl.(type) {
			case *ast.FuncDecl:
				declared[dcl.Name] = true
				if dcl.Recv == nil {
					if dcl.Name.IsExported() {
						add(pkgPath+"."+dcl.Name.Name, "", dcl.Pos())
					}
					continue
				}
				ast.Inspect(dcl.Recv, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						declared[id] = true
					}
					return true
				})
				if recv := recvName(dcl.Recv.List[0].Type); ast.IsExported(recv) && dcl.Name.IsExported() && !implicitMethods[dcl.Name.Name] {
					add(pkgPath+"."+recv+"."+dcl.Name.Name, dcl.Name.Name, dcl.Pos())
				}
			case *ast.GenDecl:
				for _, spec := range dcl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						declared[spec.Name] = true
						if !spec.Name.IsExported() {
							continue
						}
						add(pkgPath+"."+spec.Name.Name, "", spec.Pos())
						if st, ok := spec.Type.(*ast.StructType); ok {
							for _, fld := range st.Fields.List {
								for _, n := range fld.Names {
									declared[n] = true
									if n.IsExported() {
										add(pkgPath+"."+spec.Name.Name+"."+n.Name, n.Name, n.Pos())
									}
								}
							}
						}
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							declared[n] = true
							if n.IsExported() {
								add(pkgPath+"."+n.Name, "", n.Pos())
							}
						}
					}
				}
			}
		}

		imports := map[string]string{}
		for _, imp := range f.Imports {
			ip, _ := strconv.Unquote(imp.Path.Value)
			name := path.Base(ip)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = ip
		}
		var visit func(ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					if ip, ok := imports[x.Name]; ok {
						uses[ip+"."+n.Sel.Name] = true
						return false
					}
				}
				memberUses[n.Sel.Name] = true
				ast.Inspect(n.X, visit)
				return false
			case *ast.KeyValueExpr:
				if k, ok := n.Key.(*ast.Ident); ok {
					memberUses[k.Name] = true
				}
			case *ast.Ident:
				if !declared[n] {
					uses[pkgPath+"."+n.Name] = true
				}
			}
			return true
		}
		ast.Inspect(f, visit)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var bad []string
	unused := map[string]bool{}
	for _, d := range decls {
		if (d.member == "" && uses[d.key]) || (d.member != "" && memberUses[d.member]) {
			continue
		}
		unused[d.key] = true
		if _, ok := testOnlyAllowed[d.key]; !ok {
			bad = append(bad, d.pos.String()+": "+d.key)
		}
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Errorf("exported but referenced only by tests: %s", b)
	}
	for key := range testOnlyAllowed {
		if !unused[key] {
			t.Errorf("allowlisted %s is gone or now has a non-test caller: drop it from testOnlyAllowed", key)
		}
	}
}

// recvName returns the type name of a method receiver (T, *T, T[P]).
func recvName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return recvName(e.X)
	case *ast.IndexExpr:
		return recvName(e.X)
	case *ast.IndexListExpr:
		return recvName(e.X)
	case *ast.Ident:
		return e.Name
	}
	return ""
}
