package main

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"ontario/internal/lslod"
	"ontario/internal/rdf"
	"ontario/internal/sparql"
)

// oracle holds the expected answers of every (template, constant) pair a
// workload can draw, computed by direct SPARQL evaluation over the
// materialized lake: the reference implementation shares no code path with
// the engine's planner, wrappers or operators.
type oracle struct {
	counts map[string]int
	// rows is the expected answer multiset of each pair; a row is its
	// terms in projected-variable order, so renamed variables compare
	// equal.
	rows map[string]map[string]int
}

// buildOracle materializes a freshly generated lake of the given scale as
// one RDF graph and evaluates every pair's canonical query over it.
func buildOracle(scale lslod.Scale, keys map[string]*template) (*oracle, error) {
	l, err := lslod.BuildLake(scale, dataSeed)
	if err != nil {
		return nil, fmt.Errorf("oracle lake: %w", err)
	}
	g := rdf.NewGraph()
	for _, id := range l.Catalog.SourceIDs() {
		sg, err := lslod.GraphFromSource(l.Catalog.Source(id))
		if err != nil {
			return nil, fmt.Errorf("oracle graph of %s: %w", id, err)
		}
		g.AddAll(sg.Triples())
	}
	o := &oracle{counts: make(map[string]int), rows: make(map[string]map[string]int)}
	for key, t := range keys {
		_, constant, _ := strings.Cut(key, "|")
		q, err := sparql.Parse(t.instance(constant, ""))
		if err != nil {
			return nil, fmt.Errorf("oracle parse %s: %w", key, err)
		}
		vars := q.ProjectedVars()
		rows := make(map[string]int)
		sols := sparql.EvalQuery(g, q)
		for _, b := range sols {
			terms := make([]string, len(vars))
			for i, v := range vars {
				if t, ok := b[v]; ok {
					terms[i] = rdfTermKey(t)
				}
			}
			rows[strings.Join(terms, "\x1f")]++
		}
		o.counts[key] = len(sols)
		o.rows[key] = rows
	}
	return o, nil
}

// fingerprint lists the expected answer count of each canonical query,
// recorded with every result: a change to the lake's data generation
// changes it instead of posing as a speed change.
func (o *oracle) fingerprint() map[string]int {
	out := make(map[string]int)
	for _, t := range templates {
		if n, ok := o.counts[answerKey(t, t.canonical)]; ok {
			out[t.id] = n
		}
	}
	return out
}

const xsdString = "http://www.w3.org/2001/XMLSchema#string"

func rdfTermKey(t rdf.Term) string {
	kind := "L"
	switch t.Kind {
	case rdf.TermIRI:
		kind = "I"
	case rdf.TermBlank:
		kind = "B"
	}
	return termKey(kind, t.Value, t.Datatype, t.Lang)
}

func termKey(kind, value, datatype, lang string) string {
	if datatype == xsdString {
		datatype = ""
	}
	return kind + value + "^^" + datatype + "@" + lang
}

// resultsDoc is the application/sparql-results+json document.
type resultsDoc struct {
	Head struct {
		Vars []string `json:"vars"`
	} `json:"head"`
	Results struct {
		Bindings []map[string]struct {
			Type     string `json:"type"`
			Value    string `json:"value"`
			Datatype string `json:"datatype"`
			Lang     string `json:"xml:lang"`
		} `json:"bindings"`
	} `json:"results"`
}

// checkBody compares a full response document against the pair's expected
// answer multiset.
func (o *oracle) checkBody(key string, body []byte) error {
	var doc resultsDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		return fmt.Errorf("%s: response is not a results document: %v", key, err)
	}
	got := make(map[string]int)
	for _, b := range doc.Results.Bindings {
		terms := make([]string, len(doc.Head.Vars))
		for i, v := range doc.Head.Vars {
			t, ok := b[v]
			if !ok {
				continue
			}
			kind := "L"
			switch t.Type {
			case "uri":
				kind = "I"
			case "bnode":
				kind = "B"
			}
			terms[i] = termKey(kind, t.Value, t.Datatype, t.Lang)
		}
		got[strings.Join(terms, "\x1f")]++
	}
	want := o.rows[key]
	var diff []string
	for row, n := range want {
		if got[row] != n {
			diff = append(diff, fmt.Sprintf("row %q: want %d got %d", row, n, got[row]))
		}
	}
	for row, n := range got {
		if _, ok := want[row]; !ok {
			diff = append(diff, fmt.Sprintf("unexpected row %q x%d", row, n))
		}
	}
	if len(diff) > 0 {
		sort.Strings(diff)
		if len(diff) > 3 {
			diff = append(diff[:3], fmt.Sprintf("... %d more", len(diff)-3))
		}
		return fmt.Errorf("%s: answer multiset differs from the oracle: %s", key, strings.Join(diff, "; "))
	}
	return nil
}
