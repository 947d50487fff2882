package experiments

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

// kindKeys returns the entry keys and the assert keys def's kind reads.
// A kind reads (marks used) each of its keys whether or not it is present,
// so decoding an empty entry and an empty assert block finds them all; an
// empty entry may still be refused (hier-agg needs a strategy).
func kindKeys(t *testing.T, def kindDef) (entry, asserts []string) {
	t.Helper()
	spec := ScenarioSpec{Duration: time.Minute}
	k := def.new()
	e := &fields{v: &yval{m: map[string]*yval{}}, used: map[string]bool{}}
	_ = k.decode(e, &spec)
	a := &fields{v: &yval{m: map[string]*yval{}}, used: map[string]bool{}}
	if err := k.decodeAssert(a, &spec); err != nil {
		t.Fatalf("%s: an empty assert block is refused: %v", def.name, err)
	}
	keys := func(used map[string]bool) []string {
		var out []string
		for key := range used {
			out = append(out, key)
		}
		sort.Strings(out)
		return out
	}
	return keys(e.used), keys(a.used)
}

// TestWorkloadKeysRefusedInOtherKinds: every key one kind reads is an
// unknown key, reported with its line, in any other kind's entry. The
// cases come from the registry, so a new kind is covered when it lands.
func TestWorkloadKeysRefusedInOtherKinds(t *testing.T) {
	cases := 0
	for _, own := range workloadKinds {
		ownKeys, _ := kindKeys(t, own)
		for _, other := range workloadKinds {
			otherKeys, _ := kindKeys(t, other)
			for _, key := range otherKeys {
				if slices.Contains(ownKeys, key) {
					continue
				}
				cases++
				src := fmt.Sprintf("name: x\nnodes: 4\nduration: 5s\nworkload:\n  - kind: %s\n    %s: 1\n", own.name, key)
				_, err := ParseScenario(src)
				if want := fmt.Sprintf("%q (line 6)", key); err == nil || !strings.Contains(err.Error(), want) {
					t.Errorf("%s entry with %s's key %q: error %v, want one naming %s", own.name, other.name, key, err, want)
				}
			}
		}
	}
	if cases == 0 {
		t.Fatal("the registry generated no case")
	}
}

// TestKindAssertionsNeedTheirKind: each assertion a kind owns is refused
// at parse time, with its line, in a scenario where no kind that owns it
// runs: with no workload at all, and beside each other kind whose bare
// entry parses. A kind reads exactly the assert keys the registry says it
// owns.
func TestKindAssertionsNeedTheirKind(t *testing.T) {
	for _, def := range workloadKinds {
		owned := slices.Clone(def.asserts)
		slices.Sort(owned)
		if _, asserts := kindKeys(t, def); !slices.Equal(asserts, owned) {
			t.Errorf("%s reads assert keys %v, the registry says it owns %v", def.name, asserts, def.asserts)
		}
		for _, key := range def.asserts {
			entries := []string{""}
			for _, other := range workloadKinds {
				entry := fmt.Sprintf("workload:\n  - kind: %s\n", other.name)
				if _, err := ParseScenario("name: x\nnodes: 4\nduration: 5s\n" + entry); err == nil && !slices.Contains(other.asserts, key) {
					entries = append(entries, entry)
				}
			}
			for _, entry := range entries {
				src := "name: x\nnodes: 4\nduration: 5s\n" + entry + "assert:\n  " + key + ": 1\n"
				line := strings.Count(src, "\n")
				_, err := ParseScenario(src)
				if want := fmt.Sprintf("line %d: assert %s requires a", line, key); err == nil || !strings.Contains(err.Error(), want) {
					t.Errorf("assert %s with workload %q: error %v, want %q", key, entry, err, want)
				}
			}
		}
	}
}

// parseErrorCases returns the sources TestParseScenarioErrors refuses,
// read from that test's own case table so the two cannot drift apart.
func parseErrorCases(t testing.TB) []string {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "scenario_test.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var srcs []string
	for _, decl := range file.Decls {
		if fn, ok := decl.(*ast.FuncDecl); ok && fn.Name.Name == "TestParseScenarioErrors" {
			ast.Inspect(fn, func(n ast.Node) bool {
				if kv, ok := n.(*ast.KeyValueExpr); ok {
					if lit, ok := kv.Value.(*ast.BasicLit); ok && lit.Kind == token.STRING {
						src, err := strconv.Unquote(lit.Value)
						if err != nil {
							t.Fatal(err)
						}
						srcs = append(srcs, src)
					}
				}
				return true
			})
		}
	}
	if len(srcs) < 10 {
		t.Fatalf("found %d TestParseScenarioErrors cases", len(srcs))
	}
	return srcs
}

// FuzzParseScenario: scenario files are hand-written and parsed by hand,
// so any bytes must parse or be refused without a panic, and parsing the
// same bytes twice must give the same spec and the same error. Seeds are
// every checked-in scenario and every TestParseScenarioErrors case.
func FuzzParseScenario(f *testing.F) {
	names, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.yaml"))
	if err != nil {
		f.Fatal(err)
	}
	for _, name := range names {
		src, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	for _, src := range parseErrorCases(f) {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		a, errA := ParseScenario(src)
		b, errB := ParseScenario(src)
		if fmt.Sprint(errA) != fmt.Sprint(errB) || !reflect.DeepEqual(a, b) {
			t.Fatalf("two parses differ:\n%+v (%v)\n%+v (%v)", a, errA, b, errB)
		}
	})
}
