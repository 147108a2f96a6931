package main

import (
	"strings"
	"testing"
)

func TestSelectExperiments(t *testing.T) {
	for _, tc := range []struct {
		spec string
		want []string // nil: the spec is rejected
	}{
		{"all", ids(experiments)},
		{"ALL", ids(experiments)},
		{"T1", []string{"T1"}},
		{"F9,T2,F6", []string{"T2", "F6", "F9"}},
		{"f10, a4 ,e2", []string{"F10", "A4", "E2"}},
		{"T1,T1", []string{"T1"}},
		{"T12", nil},
		{"T1,X9", nil},
		{"none", nil},
		{"", nil},
		{"T1,", nil},
		{" ", nil},
	} {
		got, err := selectExperiments(tc.spec)
		if tc.want == nil {
			if err == nil {
				t.Errorf("-exp %q selected %v, want an error", tc.spec, ids(got))
			} else if !strings.Contains(err.Error(), "T1,T2,F6") {
				t.Errorf("-exp %q: error %q does not name the valid IDs", tc.spec, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("-exp %q: %v", tc.spec, err)
			continue
		}
		if g := strings.Join(ids(got), ","); g != strings.Join(tc.want, ",") {
			t.Errorf("-exp %q selected %s, want %s", tc.spec, g, strings.Join(tc.want, ","))
		}
	}
}

func ids(exps []experiment) []string {
	out := make([]string, len(exps))
	for i, ex := range exps {
		out[i] = ex.id
	}
	return out
}
