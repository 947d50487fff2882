package bench

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// citedTestName matches a Test, Fuzz or Benchmark identifier as prose,
// CI commands and comments cite it: the prefix followed by an exported
// name. A -run alternation cites each of its names.
var citedTestName = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z0-9_]\w*`)

// docsCitingTests are the text files whose test citations must stay live.
// Paths are relative to the module root.
var docsCitingTests = []string{
	"ROADMAP.md",
	"benchmark/README.md",
	".github/workflows/ci.yml",
	".claude/skills/verify/SKILL.md",
}

// TestDocsNameLiveSymbols checks that every Test*, Fuzz* or Benchmark*
// name the docs, CI and Go comments cite is defined by some _test.go
// file in the repository, so a renamed or deleted test cannot leave a
// citation pointing at nothing. A cited name may be a prefix (a
// BenchmarkAblation family, a -run pattern): it must then begin at least
// one defined name.
func TestDocsNameLiveSymbols(t *testing.T) {
	defined := map[string]bool{}
	cited := map[string][]string{} // name -> where it is cited
	cite := func(where, text string) {
		for _, name := range citedTestName.FindAllString(text, -1) {
			cited[name] = append(cited[name], where)
		}
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, g := range f.Comments {
			cite(fset.Position(g.Pos()).String(), g.Text())
		}
		if strings.HasSuffix(path, "_test.go") {
			for _, decl := range f.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
					defined[fn.Name.Name] = true
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range docsCitingTests {
		text, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(text), "\n") {
			cite(path+":"+strconv.Itoa(i+1), line)
		}
	}
	if len(defined) == 0 || len(cited) == 0 {
		t.Fatalf("degenerate scan: %d defined, %d cited", len(defined), len(cited))
	}
	var dangling []string
	for name, where := range cited {
		if defined[name] || definesPrefix(defined, name) {
			continue
		}
		dangling = append(dangling, name+" (cited at "+strings.Join(where, ", ")+")")
	}
	sort.Strings(dangling)
	for _, d := range dangling {
		t.Errorf("no _test.go defines %s", d)
	}
}

func definesPrefix(defined map[string]bool, prefix string) bool {
	for name := range defined {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return false
}
