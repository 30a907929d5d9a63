package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"regexp"
	"strings"
	"sync"

	"ontario"
	"ontario/internal/lslod"
)

// Fixed inputs of every run. The workload seed (--seed) only drives the
// request stream; the lake data and the simulated network are the same on
// every run, so two runs differ in query order and ad-hoc constants, never
// in the data they query.
const (
	dataSeed   int64 = 1
	netsimSeed int64 = 1
)

// workload is one traffic mix against one system under test.
type workload struct {
	name  string
	small bool // small-scale lake instead of the default scale
	// network is the simulated per-message source latency profile and
	// netScale its sleep multiplier (0 counts messages without sleeping).
	network  ontario.Profile
	netScale float64
	// adhoc makes every request a fresh instance of a template (new
	// constants, renamed variables) instead of repeating Q1–Q5 verbatim.
	adhoc bool
	// workers > 0 partitions the lake over that many in-process cluster
	// workers behind a coordinator engine.
	workers int
}

// cluster-2w is runnable by name but left out of BENCHMARK.json: compute
// only, it follows the shared host's speed too closely to hold a bound
// (see README.md). cluster-2w-gamma1 measures the same cluster layers
// under the Gamma 1 sleeps, which keep it steady.
var workloads = []workload{
	{name: "lslod-repeat", network: ontario.NoDelay},
	{name: "lslod-adhoc", network: ontario.NoDelay, adhoc: true},
	{name: "federated-gamma1", small: true, network: ontario.Gamma1, netScale: 1},
	{name: "cluster-2w-gamma1", small: true, network: ontario.Gamma1, netScale: 1, workers: 2},
	{name: "cluster-2w", network: ontario.NoDelay, workers: 2},
}

func workloadByName(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

func (w workload) scale() lslod.Scale {
	if w.small {
		return lslod.SmallScale()
	}
	return lslod.DefaultScale()
}

func (w workload) scaleName() string {
	if w.small {
		return "small"
	}
	return "default"
}

// IRIs of the LSLOD vocabulary the templates use, spelled out so the
// measured queries cannot change when the library's query list does.
const (
	rdfType  = "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>"
	diseasom = "http://lake.tib.eu/diseasome/vocab#"
	affy     = "http://lake.tib.eu/affymetrix/vocab#"
	drugbank = "http://lake.tib.eu/drugbank/vocab#"
	linkedct = "http://lake.tib.eu/linkedct/vocab#"
)

// template is one of the paper's query shapes Q1–Q5 with its constant
// replaced by $C. canonical is the constant the verbatim query uses;
// domain is the set ad-hoc instances draw from, taken from the value
// pools the LSLOD generator samples the lake's attribute from.
type template struct {
	id        string
	text      string
	canonical string
	domain    []string
	parts     []tmplPart
	// verbatim is the canonical instance, the text a repeating stream
	// sends.
	verbatim string
}

// tmplPart is a literal run of template text, a variable (renamed per
// ad-hoc instance), or the constant slot.
type tmplPart struct {
	lit      string
	variable string
	constant bool
}

var templates = []*template{
	{id: "Q1", canonical: "itis", text: `
SELECT ?disease ?name ?gene WHERE {
  ?disease ` + rdfType + ` <` + diseasom + `Disease> .
  ?disease <` + diseasom + `name> ?name .
  ?disease <` + diseasom + `associatedGene> ?gene .
  FILTER (CONTAINS(?name, "$C"))
}`,
		// Disease names are a root followed by a suffix.
		domain: []string{"cardi", "neur", "derm", "hepat", "nephr", "arthr", "gastr", "oste", "my", "encephal", "bronch", "col", "phleb", "rhin", "laryng",
			"itis", "oma", "opathy", "osis"}},
	{id: "Q2", canonical: "chr7", text: `
SELECT ?disease ?dname ?gene ?glabel WHERE {
  ?disease ` + rdfType + ` <` + diseasom + `Disease> .
  ?disease <` + diseasom + `name> ?dname .
  ?disease <` + diseasom + `associatedGene> ?gene .
  ?gene ` + rdfType + ` <` + diseasom + `Gene> .
  ?gene <` + diseasom + `geneLabel> ?glabel .
  ?gene <` + diseasom + `chromosome> ?chrom .
  FILTER (?chrom = "$C")
}`, domain: chromosomes()},
	{id: "Q3", canonical: "chr11", text: `
SELECT ?probe ?pname ?signal ?gene ?glabel WHERE {
  ?probe ` + rdfType + ` <` + affy + `Probeset> .
  ?probe <` + affy + `probesetName> ?pname .
  ?probe <` + affy + `signalAverage> ?signal .
  ?probe <` + affy + `transcribedFrom> ?gene .
  ?probe <` + affy + `chromosome> ?chrom .
  ?gene ` + rdfType + ` <` + diseasom + `Gene> .
  ?gene <` + diseasom + `geneLabel> ?glabel .
  FILTER (?chrom = "$C")
}`, domain: chromosomes()},
	{id: "Q4", canonical: "Cancer", text: `
SELECT ?disease ?gene ?probe WHERE {
  ?disease ` + rdfType + ` <` + diseasom + `Disease> .
  ?disease <` + diseasom + `diseaseClass> "$C" .
  ?disease <` + diseasom + `associatedGene> ?gene .
  ?gene ` + rdfType + ` <` + diseasom + `Gene> .
  ?gene <` + diseasom + `geneLabel> ?glabel .
  ?probe ` + rdfType + ` <` + affy + `Probeset> .
  ?probe <` + affy + `transcribedFrom> ?gene .
  ?probe <` + affy + `scientificName> ?species .
  FILTER (?species = "Homo sapiens")
}`, domain: []string{"Cancer", "Metabolic", "Neurological", "Cardiovascular", "Immunological", "Respiratory", "Dermatological", "Skeletal", "Endocrine",
		"Ophthamological", "Renal", "Gastrointestinal", "Hematological", "Muscular", "Psychiatric", "Developmental", "Connective tissue", "Unclassified"}},
	{id: "Q5", canonical: "Recruiting", text: `
SELECT ?trial ?title ?dname ?drugname WHERE {
  ?trial ` + rdfType + ` <` + linkedct + `Trial> .
  ?trial <` + linkedct + `title> ?title .
  ?trial <` + linkedct + `overallStatus> ?status .
  ?trial <` + linkedct + `condition> ?disease .
  ?trial <` + linkedct + `intervention> ?drug .
  ?disease ` + rdfType + ` <` + diseasom + `Disease> .
  ?disease <` + diseasom + `name> ?dname .
  ?drug ` + rdfType + ` <` + drugbank + `Drug> .
  ?drug <` + drugbank + `genericName> ?drugname .
  FILTER (?status = "$C")
}`, domain: []string{"Recruiting", "Completed", "Terminated", "Suspended", "Withdrawn", "Active", "Enrolling", "Unknown", "Not yet recruiting",
		"Available", "Approved", "No longer available"}},
}

func chromosomes() []string {
	out := make([]string, 0, 24)
	for i := 1; i <= 22; i++ {
		out = append(out, fmt.Sprintf("chr%d", i))
	}
	return append(out, "chrX", "chrY")
}

var tokenRE = regexp.MustCompile(`\?[A-Za-z_][A-Za-z0-9_]*|\$C`)

func init() {
	for _, t := range templates {
		last := 0
		for _, m := range tokenRE.FindAllStringIndex(t.text, -1) {
			t.parts = append(t.parts, tmplPart{lit: t.text[last:m[0]]})
			if tok := t.text[m[0]:m[1]]; tok == "$C" {
				t.parts = append(t.parts, tmplPart{constant: true})
			} else {
				t.parts = append(t.parts, tmplPart{variable: tok[1:]})
			}
			last = m[1]
		}
		t.parts = append(t.parts, tmplPart{lit: t.text[last:]})
		t.verbatim = t.instance(t.canonical, "")
	}
}

// instance renders the template with the constant and every variable
// prefixed by varPrefix. The prefix is shared by all variables of one
// instance, so their relative order, and with it any name-ordered
// planning decision, is the same as the canonical query's.
func (t *template) instance(constant, varPrefix string) string {
	var b strings.Builder
	b.Grow(len(t.text) + 16*len(t.parts))
	for _, p := range t.parts {
		switch {
		case p.constant:
			b.WriteString(constant)
		case p.variable != "":
			b.WriteByte('?')
			b.WriteString(varPrefix)
			b.WriteString(p.variable)
		default:
			b.WriteString(p.lit)
		}
	}
	return b.String()
}

// request is one query of a stream. key names its answer set: the
// template and constant, which renamed variables do not change.
type request struct {
	key  string
	text string
}

func answerKey(t *template, constant string) string { return t.id + "|" + constant }

// generator produces a workload's request stream; the same seed gives the
// same stream. It is safe for concurrent use: callers draw the next
// request in stream order.
type generator struct {
	adhoc bool

	mu    sync.Mutex
	rng   *rand.Rand
	order []int // template indices of the current round
	pos   int
	// pools are the ad-hoc constant permutations, one per template,
	// reshuffled when used up so every constant recurs equally often.
	pools   [][]string
	poolPos []int
	tag     string
	n       int

	// seen holds the hashes of every text drawn so far; repeats counts the
	// draws since the last resetRepeats whose text was already seen.
	seen    map[uint64]struct{}
	drawn   int
	repeats int
}

func newGenerator(adhoc bool, seed int64) *generator {
	g := &generator{
		adhoc: adhoc,
		rng:   rand.New(rand.NewSource(seed)),
		seen:  make(map[uint64]struct{}),
	}
	const letters = "abcdefghijklmnopqrstuvwxyz"
	tag := make([]byte, 4)
	for i := range tag {
		tag[i] = letters[g.rng.Intn(len(letters))]
	}
	g.tag = string(tag)
	for _, t := range templates {
		g.pools = append(g.pools, append([]string(nil), t.domain...))
		g.poolPos = append(g.poolPos, len(t.domain))
	}
	return g
}

// next draws the next request. Templates go round-robin, each round in a
// fresh seeded order.
func (g *generator) next() request {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.pos == len(g.order) {
		g.order = g.rng.Perm(len(templates))
		g.pos = 0
	}
	ti := g.order[g.pos]
	g.pos++
	t := templates[ti]
	var r request
	if !g.adhoc {
		r = request{key: answerKey(t, t.canonical), text: t.verbatim}
	} else {
		if g.poolPos[ti] == len(g.pools[ti]) {
			g.rng.Shuffle(len(g.pools[ti]), func(i, j int) { g.pools[ti][i], g.pools[ti][j] = g.pools[ti][j], g.pools[ti][i] })
			g.poolPos[ti] = 0
		}
		c := g.pools[ti][g.poolPos[ti]]
		g.poolPos[ti]++
		g.n++
		r = request{key: answerKey(t, c), text: t.instance(c, fmt.Sprintf("%s%d_", g.tag, g.n))}
	}
	h := fnv.New64a()
	h.Write([]byte(r.text))
	sum := h.Sum64()
	if _, ok := g.seen[sum]; ok {
		g.repeats++
	}
	g.seen[sum] = struct{}{}
	g.drawn++
	return r
}

// resetRepeats starts a new repeat-share window: draws before it still
// count as seen.
func (g *generator) resetRepeats() {
	g.mu.Lock()
	g.drawn, g.repeats = 0, 0
	g.mu.Unlock()
}

// repeatShare is the share of draws since resetRepeats whose exact text
// had been drawn before in this run.
func (g *generator) repeatShare() float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.drawn == 0 {
		return 0
	}
	return float64(g.repeats) / float64(g.drawn)
}

// answerKeys lists every (template, constant) pair the stream can draw.
func answerKeys(adhoc bool) map[string]*template {
	out := make(map[string]*template)
	for _, t := range templates {
		if !adhoc {
			out[answerKey(t, t.canonical)] = t
			continue
		}
		for _, c := range t.domain {
			out[answerKey(t, c)] = t
		}
	}
	return out
}
