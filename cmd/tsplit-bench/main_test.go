package main

import (
	"errors"
	"strings"
	"testing"
)

func TestRunSelectedExitStatus(t *testing.T) {
	var ran []string
	exp := func(id string, err error) experiment {
		return experiment{id, func() (string, error) {
			ran = append(ran, id)
			return id + " output", err
		}}
	}
	exps := []experiment{exp("a", nil), exp("b", errors.New("boom")), exp("c", nil)}
	cases := []struct {
		spec    string
		status  int
		ran     []string
		stderr  string
		stdoutN int // sections printed
	}{
		{"a", 0, []string{"a"}, "", 1},
		{"all", 1, []string{"a", "b", "c"}, "b: boom", 2},
		{"c, b", 1, []string{"b", "c"}, "b: boom", 1},
		{"a,bogus", 2, nil, `unknown experiment "bogus"; known: all a b c`, 0},
	}
	for _, tc := range cases {
		ran = nil
		var out, errOut strings.Builder
		if got := runSelected(exps, tc.spec, &out, &errOut); got != tc.status {
			t.Errorf("%q: status %d, want %d", tc.spec, got, tc.status)
		}
		if strings.Join(ran, ",") != strings.Join(tc.ran, ",") {
			t.Errorf("%q: ran %v, want %v", tc.spec, ran, tc.ran)
		}
		if !strings.Contains(errOut.String(), tc.stderr) || (tc.stderr == "") != (errOut.Len() == 0) {
			t.Errorf("%q: stderr %q, want it to contain %q", tc.spec, errOut.String(), tc.stderr)
		}
		if n := strings.Count(out.String(), "====="); n != 2*tc.stdoutN {
			t.Errorf("%q: %d section markers, want %d", tc.spec, n, 2*tc.stdoutN)
		}
	}
}
