package core

import (
	"fmt"
	"testing"

	"ontario/internal/lslod"
	"ontario/internal/netsim"
	"ontario/internal/sparql"
)

// TestMergedServiceSplit checks the cluster split the planner records on
// merged services, under both optimizers: Q2's selective gene star (the
// chromosome filter placed on it) runs first and the disease star joins
// it by block bind join, while two stars of one subject join by symmetric
// hash, the co-partitioned shape the co-join pushdown runs worker-local.
func TestMergedServiceSplit(t *testing.T) {
	lake := testLake(t)
	subjectSubject := sparql.MustParse(fmt.Sprintf(`SELECT ?d ?n ?drug WHERE {
  ?d <%s> ?n .
  ?d <%s> ?drug .
}`, lslod.PredDiseaseName, lslod.PredPossibleDrug))
	for _, optimizer := range []OptimizerMode{OptimizerCost, OptimizerGreedy} {
		opts := AwareOptions(netsim.Gamma1)
		opts.Optimizer = optimizer

		plan, err := NewPlanner(lake.Catalog).Plan(lslod.Query("Q2"), opts)
		if err != nil {
			t.Fatal(err)
		}
		merged := mergedServices(plan.Root)
		if len(merged) != 1 || merged[0].Split == nil {
			t.Fatalf("%s: Q2 has no split merged service:\n%s", optimizer, plan.Explain())
		}
		j, ok := merged[0].Split.(*JoinNode)
		if !ok || j.Op != JoinBlockBind || len(j.JoinVars) != 1 || j.JoinVars[0] != "gene" {
			t.Fatalf("%s: Q2 split root = %#v, want a block bind join on ?gene", optimizer, merged[0].Split)
		}
		first, second := j.L.(*ServiceNode), j.R.(*ServiceNode)
		if first.Req.Stars[0].SubjectVar != "gene" || len(first.Req.Filters) != 1 {
			t.Fatalf("%s: Q2 split starts with ?%s and %d filters, want the filtered ?gene star",
				optimizer, first.Req.Stars[0].SubjectVar, len(first.Req.Filters))
		}
		if second.Req.Stars[0].SubjectVar != "disease" || len(second.Req.Filters) != 0 {
			t.Fatalf("%s: Q2 split continues with ?%s, want the unfiltered ?disease star",
				optimizer, second.Req.Stars[0].SubjectVar)
		}

		opts.Decomposition = DecomposeTriples
		plan, err = NewPlanner(lake.Catalog).Plan(subjectSubject, opts)
		if err != nil {
			t.Fatal(err)
		}
		merged = mergedServices(plan.Root)
		if len(merged) != 1 {
			t.Fatalf("%s: subject-subject query has %d merged services:\n%s", optimizer, len(merged), plan.Explain())
		}
		if j, ok := merged[0].Split.(*JoinNode); !ok || j.Op != JoinSymmetricHash || !coPartitioned(j) {
			t.Fatalf("%s: subject-subject split = %#v, want a co-partitioned symmetric hash join", optimizer, merged[0].Split)
		}
	}
}
