package main

import (
	"strings"
	"testing"

	"dmknn/internal/exp"
)

func TestSelectExperiments(t *testing.T) {
	suite := exp.Suite(exp.SmokeProfile())

	all, table2, err := selectExperiments(suite, "")
	if err != nil || len(all) != len(suite) || !table2 {
		t.Fatalf("empty -only: %d of %d experiments, table2=%v, err=%v", len(all), len(suite), table2, err)
	}

	// Suite order, not the order given; blanks around ids are trimmed.
	got, table2, err := selectExperiments(suite, "table4, fig5")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].ID != "fig5" || got[1].ID != "table4" || table2 {
		t.Fatalf("picked %v, table2=%v; want fig5, table4 and no table2", ids(got), table2)
	}

	got, table2, err = selectExperiments(suite, "table2")
	if err != nil || len(got) != 0 || !table2 {
		t.Fatalf("table2 alone: picked %v, table2=%v, err=%v", ids(got), table2, err)
	}

	// An id that names nothing is an error that says which id and lists
	// the valid ones — fig14, like fig23, is a gap in the numbering.
	for _, c := range []struct{ only, bad string }{
		{"nosuch", "nosuch"}, {"fig5,fig14", "fig14"}, {"fig5,", ""},
	} {
		got, _, err := selectExperiments(suite, c.only)
		if err == nil {
			t.Fatalf("-only %q: no error, picked %v", c.only, ids(got))
		}
		for _, want := range []string{`"` + c.bad + `"`, "fig5", "table4", "table2"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("-only %q: error %q does not mention %s", c.only, err, want)
			}
		}
	}
}

func ids(es []*exp.Experiment) []string {
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = e.ID
	}
	return out
}
