// Command parcheck is the repo's go-vet-adjacent guard for the parallel
// substrate: it flags any call to par.ForCtx / par.ForWorkerCtx /
// par.MapCtx whose error result is discarded —
// either as a bare expression statement or assigned to the blank
// identifier. Dropped par errors are how cancellation and per-task
// failures silently vanish (solver.AnnealRestartsCtx shipped exactly that
// bug), so every discard must be deliberate: a comment containing
// "par:" on the same line or ending on the line directly above the call
// marks it as audited and documented, e.g.
//
//	// par: discard ok — the block fn never errors and context.TODO
//	// never cancels.
//	_ = par.ForCtx(context.TODO(), blocks, func(b int) error { ... })
//
// Usage: go run ./scripts/parcheck [dirs...]   (default ".")
// Exits 1 if any undocumented discard is found.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// errResultIndex maps each par entry point to the position of its error
// result, so multi-result functions (Map) are checked at the right slot.
var errResultIndex = map[string]int{
	"ForCtx":       0,
	"ForWorkerCtx": 0,
	"MapCtx":       1,
}

func main() {
	roots := os.Args[1:]
	if len(roots) == 0 {
		roots = []string{"."}
	}
	bad := 0
	for _, root := range roots {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				name := d.Name()
				if name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") && name != "." {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") {
				return nil
			}
			n, err := checkFile(path)
			if err != nil {
				return err
			}
			bad += n
			return nil
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "parcheck:", err)
			os.Exit(2)
		}
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "parcheck: %d undocumented par error discard(s); annotate deliberate ones with a \"par:\" comment\n", bad)
		os.Exit(1)
	}
}

func checkFile(path string) (int, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
	if err != nil {
		return 0, err
	}
	// Lines blessed by a "par:" marker: every line of a marker comment
	// group, plus the line right after it (the call the comment governs).
	blessed := map[int]bool{}
	for _, cg := range f.Comments {
		if !strings.Contains(cg.Text(), "par:") {
			continue
		}
		start := fset.Position(cg.Pos()).Line
		end := fset.Position(cg.End()).Line
		for l := start; l <= end+1; l++ {
			blessed[l] = true
		}
	}
	bad := 0
	report := func(pos token.Pos, what string) {
		p := fset.Position(pos)
		if blessed[p.Line] {
			return
		}
		fmt.Fprintf(os.Stderr, "%s:%d: %s\n", path, p.Line, what)
		bad++
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.ExprStmt:
			if name, ok := parCall(st.X); ok {
				report(st.Pos(), "result of par."+name+" discarded (bare call)")
			}
		case *ast.AssignStmt:
			if len(st.Rhs) != 1 {
				return true
			}
			name, ok := parCall(st.Rhs[0])
			if !ok {
				return true
			}
			idx := errResultIndex[name]
			if idx >= len(st.Lhs) {
				return true
			}
			if id, isIdent := st.Lhs[idx].(*ast.Ident); isIdent && id.Name == "_" {
				report(st.Pos(), "error of par."+name+" assigned to _")
			}
		}
		return true
	})
	return bad, nil
}

// parCall reports whether e is a call of the form par.<Name>(...) for a
// tracked Name.
func parCall(e ast.Expr) (string, bool) {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return "", false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	pkg, ok := sel.X.(*ast.Ident)
	if !ok || pkg.Name != "par" {
		return "", false
	}
	if _, tracked := errResultIndex[sel.Sel.Name]; !tracked {
		return "", false
	}
	return sel.Sel.Name, true
}
