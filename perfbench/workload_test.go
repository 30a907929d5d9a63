package main

import (
	"strings"
	"testing"

	"ontario/internal/sparql"
)

func draw(g *generator, n int) []request {
	out := make([]request, n)
	for i := range out {
		out[i] = g.next()
	}
	return out
}

func TestSameSeedSameStream(t *testing.T) {
	for _, adhoc := range []bool{false, true} {
		a := draw(newGenerator(adhoc, 7), 500)
		b := draw(newGenerator(adhoc, 7), 500)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("adhoc=%v: request %d differs between two generators with one seed", adhoc, i)
			}
		}
		c := draw(newGenerator(adhoc, 8), 500)
		same := 0
		for i := range a {
			if a[i] == c[i] {
				same++
			}
		}
		if same == len(a) {
			t.Errorf("adhoc=%v: seeds 7 and 8 gave the same stream", adhoc)
		}
	}
}

func TestRepeatShare(t *testing.T) {
	for _, adhoc := range []bool{false, true} {
		g := newGenerator(adhoc, 3)
		draw(g, len(templates)) // the warm-up sends one round
		g.resetRepeats()
		draw(g, 2000)
		want := 1.0
		if adhoc {
			want = 0
		}
		if got := g.repeatShare(); got != want {
			t.Errorf("adhoc=%v: repeat share %v, want %v", adhoc, got, want)
		}
	}
}

func TestRoundRobinCoversTemplatesAndConstants(t *testing.T) {
	keys := answerKeys(true)
	g := newGenerator(true, 11)
	perTemplate := make(map[string]int)
	seen := make(map[string]bool)
	for _, r := range draw(g, 5*len(keys)) {
		if keys[r.key] == nil {
			t.Fatalf("drew %q, which is not among the oracle's keys", r.key)
		}
		id, _, _ := strings.Cut(r.key, "|")
		perTemplate[id]++
		seen[r.key] = true
	}
	for _, tm := range templates {
		if perTemplate[tm.id] != len(keys) {
			t.Errorf("%s drawn %d times in %d rounds, want one per round", tm.id, perTemplate[tm.id], len(keys))
		}
	}
	if len(seen) != len(keys) {
		t.Errorf("drew %d distinct (template, constant) pairs, want all %d", len(seen), len(keys))
	}
}

func TestInstancesParseWithRenamedVariables(t *testing.T) {
	g := newGenerator(true, 5)
	for _, r := range draw(g, 2*len(templates)) {
		id, constant, _ := strings.Cut(r.key, "|")
		var tm *template
		for _, c := range templates {
			if c.id == id {
				tm = c
			}
		}
		q, err := sparql.Parse(r.text)
		if err != nil {
			t.Fatalf("%s: %v\n%s", r.key, err, r.text)
		}
		canon := sparql.MustParse(tm.instance(constant, ""))
		got, want := q.ProjectedVars(), canon.ProjectedVars()
		if len(got) != len(want) {
			t.Fatalf("%s: projects %v, canonical %v", r.key, got, want)
		}
		for i := range got {
			if got[i] == want[i] || !strings.HasSuffix(got[i], "_"+want[i]) {
				t.Errorf("%s: variable %d is %q, want a renamed %q", r.key, i, got[i], want[i])
			}
		}
		if !strings.Contains(r.text, `"`+constant+`"`) {
			t.Errorf("%s: constant missing from the text", r.key)
		}
	}
}
