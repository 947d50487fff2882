package ufl

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// treePlans returns every UFL text in the source tree — the examples, the
// scenario workloads, the benchmark and the test plans: each raw string
// literal of a .go file that declares an opgraph, with its fmt verbs
// filled in (a timeout with a duration, any other verb with a name).
func treePlans(t testing.TB) []string {
	literal := regexp.MustCompile("(?s)`[^`]*opgraph [^`]*`")
	timeoutVerb := regexp.MustCompile(`timeout %(\[\d\])?[sdv]`)
	verb := regexp.MustCompile(`%(\[\d\])?[sdv]`)
	var plans []string
	err := filepath.Walk("../..", func(path string, info os.FileInfo, err error) error {
		if err != nil || !strings.HasSuffix(path, ".go") {
			return err
		}
		src, err := os.ReadFile(path)
		for _, lit := range literal.FindAllString(string(src), -1) {
			plan := timeoutVerb.ReplaceAllString(lit[1:len(lit)-1], "timeout 30s")
			plans = append(plans, verb.ReplaceAllString(plan, "t1"))
		}
		return err
	})
	if err != nil || len(plans) < 20 {
		t.Fatalf("found %d plans in the tree: %v", len(plans), err)
	}
	return plans
}

// FuzzParse: any text parses or is refused without a panic, and a query
// Parse accepts survives Encode and Decode as an equal structure whose
// every graph Check accepts again and whose argument parse (Params)
// reaches the same verdict. The seeds are every UFL text in the tree.
func FuzzParse(f *testing.F) {
	for _, plan := range treePlans(f) {
		f.Add(plan)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src)
		if err != nil {
			return
		}
		d, err := Decode(q.Encode())
		if err != nil {
			t.Fatalf("an accepted query does not decode: %v", err)
		}
		if !reflect.DeepEqual(q, d) {
			t.Fatalf("round trip changed the query:\n%+v\n%+v", q, d)
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("the decoded query fails Check: %v", err)
		}
		for i := range q.Graphs {
			_, want := q.Graphs[i].Params()
			if _, got := d.Graphs[i].Params(); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("graph %d: Params %v after the round trip, %v before", i, got, want)
			}
		}
	})
}
