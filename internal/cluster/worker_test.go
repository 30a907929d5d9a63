package cluster

import (
	"context"
	"net"
	"testing"
	"time"

	"ontario/internal/bridge"
	"ontario/internal/core"
	"ontario/internal/engine"
	"ontario/internal/lslod"
	"ontario/internal/rdf"
	"ontario/internal/sparql"
	"ontario/internal/wrapper"
)

// TestWorkerInternsRequestShapes sends the same seeded scan task to a
// worker N times. Each task decodes a fresh request off the wire, but the
// worker interns its shape, so the response cache (which keys on the
// star and filter slices' identity) remembers one response, not N.
func TestWorkerInternsRequestShapes(t *testing.T) {
	lk, err := lslod.BuildLake(lslod.SmallScale(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := PartitionLake(lk.Lake, 0, 1); err != nil {
		t.Fatal(err)
	}
	w, err := NewWorker(lk.Lake, WorkerConfig{Partition: 0, Of: 1})
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go w.Serve(lis)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		w.Shutdown(ctx)
	})
	client, err := NewClient([]string{lis.Addr().String()}, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Close)

	star := func() *wrapper.StarQuery {
		return &wrapper.StarQuery{SubjectVar: "d", Class: lslod.ClassDisease, Patterns: []sparql.TriplePattern{{
			S: sparql.Node{IsVar: true, Var: "d"},
			P: sparql.Node{Term: rdf.NewIRI(lslod.PredDiseaseName)},
			O: sparql.Node{IsVar: true, Var: "n"},
		}}}
	}
	d := core.NewExecutor(bridge.LakeCatalog(lk.Lake)).Dict()
	schema := engine.NewSchema([]string{"d", "n"})
	env := core.FragmentEnv{Seed: 1, Fail: func(err error) { t.Error(err) }}
	const n = 5
	for i := 0; i < n; i++ {
		// A fresh request value per task, as a coordinator's block bind
		// join builds one per block.
		req := &wrapper.Request{
			Stars: []*wrapper.StarQuery{star()},
			Seeds: []sparql.Binding{{"n": rdf.NewLiteral("x")}, {"d": rdf.NewIRI("http://lake.tib.eu/diseasome/resource/disease/1")}},
		}
		s, err := client.Service(context.Background(), "diseasome", req, schema, d, env)
		if err != nil {
			t.Fatal(err)
		}
		for range s.Batches() {
		}
	}
	cache := bridge.LakeCatalog(lk.Lake).Shared("wrapper.responses", func() any { return nil }).(*wrapper.ResponseCache)
	if got := cache.Len(); got != 1 {
		t.Fatalf("%d identical scan tasks left %d response-cache entries on the worker, want 1", n, got)
	}
}
