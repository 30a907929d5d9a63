package engine

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"ontario/internal/dict"
	"ontario/internal/rdf"
	"ontario/internal/sparql"
)

// sliceService mimics a wrapper's sequential bind-join contract over a
// materialized right relation: rights compatible with the seed, merged
// with it.
func sliceService(rights []sparql.Binding) Service {
	return func(ctx context.Context, seed sparql.Binding) *Stream {
		var out []sparql.Binding
		for _, rb := range rights {
			if seed.Compatible(rb) {
				out = append(out, seed.Merge(rb))
			}
		}
		return FromSlice(ctx, out)
	}
}

// sliceBlockService mimics a wrapper's multi-seed contract: every right
// binding compatible with at least one seed, each exactly once, unmerged.
func sliceBlockService(rights []sparql.Binding) BlockService {
	return func(ctx context.Context, seeds []sparql.Binding) *Stream {
		var out []sparql.Binding
		for _, rb := range rights {
			ok := len(seeds) == 0
			for _, s := range seeds {
				if s.Compatible(rb) {
					ok = true
					break
				}
			}
			if ok {
				out = append(out, rb)
			}
		}
		return FromSlice(ctx, out)
	}
}

func multiset(bs []sparql.Binding) []string {
	out := make([]string, len(bs))
	for i, b := range bs {
		out[i] = b.FullKey()
	}
	sort.Strings(out)
	return out
}

func assertSameMultiset(t *testing.T, label string, got, want []sparql.Binding) {
	t.Helper()
	g, w := multiset(got), multiset(want)
	if len(g) != len(w) {
		t.Fatalf("%s: got %d answers, want %d", label, len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("%s: multiset differs at %d:\n got %s\nwant %s", label, i, g[i], w[i])
		}
	}
}

// randomRelation draws a relation over vars with values from a small
// domain, so joins hit both matches and misses. Every listed var is bound.
func randomRelation(rng *rand.Rand, vars []string, n int) []sparql.Binding {
	out := make([]sparql.Binding, n)
	for i := range out {
		b := sparql.NewBinding()
		for _, v := range vars {
			b[v] = rdf.IntLiteral(int64(rng.Intn(4)))
		}
		out[i] = b
	}
	return out
}

// TestJoinOperatorEquivalence is the property test: on randomized inputs —
// including empty sides and an empty join-variable set (cross product) —
// BlockBindJoin, BindJoin, SymmetricHashJoin and NestedLoopJoin must all
// produce the reference multiset of answers.
func TestJoinOperatorEquivalence(t *testing.T) {
	shapes := []struct {
		leftVars, rightVars, joinVars []string
	}{
		{[]string{"x", "a"}, []string{"x", "b"}, []string{"x"}},
		{[]string{"x", "y", "a"}, []string{"x", "y", "b"}, []string{"x", "y"}},
		{[]string{"a"}, []string{"b"}, nil}, // no shared vars: cross product
	}
	for iter := 0; iter < 60; iter++ {
		rng := rand.New(rand.NewSource(int64(iter)))
		shape := shapes[iter%len(shapes)]
		nl := rng.Intn(40)
		nr := rng.Intn(40)
		if iter%7 == 0 {
			nl = 0 // force an empty left now and then
		}
		if iter%11 == 0 {
			nr = 0
		}
		lefts := randomRelation(rng, shape.leftVars, nl)
		rights := randomRelation(rng, shape.rightVars, nr)
		want := referenceJoin(lefts, rights)
		ctx := context.Background()

		label := func(op string) string {
			return fmt.Sprintf("iter %d, %s join on %v (%dx%d)", iter, op, shape.joinVars, nl, nr)
		}
		got := BindJoin(ctx, FromSlice(ctx, lefts), sliceService(rights), shape.joinVars, 1+iter%5).Collect()
		assertSameMultiset(t, label("bind"), got, want)

		for _, cfg := range [][2]int{{1, 1}, {3, 2}, {16, 4}, {100, 8}} {
			got = BlockBindJoin(ctx, FromSlice(ctx, lefts), sliceBlockService(rights),
				shape.joinVars, cfg[0], cfg[1], 1+iter%5).Collect()
			assertSameMultiset(t, label(fmt.Sprintf("block-bind B=%d W=%d", cfg[0], cfg[1])), got, want)
		}

		got = SymmetricHashJoin(ctx, FromSlice(ctx, lefts), FromSlice(ctx, rights), shape.joinVars, 1+iter%4, 1+iter%5).Collect()
		assertSameMultiset(t, label("symmetric-hash"), got, want)

		got = NestedLoopJoin(ctx, FromSlice(ctx, lefts), FromSlice(ctx, rights), shape.joinVars, 1+iter%5).Collect()
		assertSameMultiset(t, label("nested-loop"), got, want)
	}
}

// TestBlockBindJoinUnboundLeftJoinVar exercises the unconstrained-block
// path: a left binding that does not bind the join variable joins with
// every right binding, exactly as in the sequential bind join.
func TestBlockBindJoinUnboundLeftJoinVar(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 20; iter++ {
		lefts := randomRelation(rng, []string{"x", "a"}, 15)
		for i := range lefts {
			if rng.Intn(3) == 0 {
				delete(lefts[i], "x") // join var unbound on this left binding
			}
		}
		rights := randomRelation(rng, []string{"x", "b"}, 20)
		want := referenceJoin(lefts, rights)
		ctx := context.Background()
		for _, blockSize := range []int{1, 4, 64} {
			got := BlockBindJoin(ctx, FromSlice(ctx, lefts), sliceBlockService(rights),
				[]string{"x"}, blockSize, 3, 0).Collect()
			assertSameMultiset(t, fmt.Sprintf("iter %d B=%d", iter, blockSize), got, want)
		}
		got := BindJoin(ctx, FromSlice(ctx, lefts), sliceService(rights), []string{"x"}, 0).Collect()
		assertSameMultiset(t, fmt.Sprintf("iter %d bind", iter), got, want)
	}
}

// TestBlockBindJoinBatchesRequests checks the message story at the
// operator level: n left bindings and block size B mean exactly ⌈n/B⌉
// service invocations.
func TestBlockBindJoinBatchesRequests(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, tc := range []struct{ n, block, want int }{
		{64, 16, 4}, {65, 16, 5}, {5, 16, 1}, {0, 16, 0}, {10, 1, 10},
	} {
		lefts := randomRelation(rng, []string{"x"}, tc.n)
		var mu sync.Mutex
		calls := 0
		svc := func(ctx context.Context, seeds []sparql.Binding) *Stream {
			mu.Lock()
			calls++
			mu.Unlock()
			return FromSlice(ctx, nil)
		}
		ctx := context.Background()
		BlockBindJoin(ctx, FromSlice(ctx, lefts), svc, []string{"x"}, tc.block, 4, 0).Collect()
		if calls != tc.want {
			t.Errorf("n=%d B=%d: %d service calls, want %d", tc.n, tc.block, calls, tc.want)
		}
	}
}

// TestBlockBindJoinCancellation cancels the context mid-stream and expects
// every operator to terminate and close its output.
func TestBlockBindJoinCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	lefts := randomRelation(rng, []string{"x", "a"}, 5000)
	rights := randomRelation(rng, []string{"x", "b"}, 200)

	streams := map[string]func(ctx context.Context) *Stream{
		"bind": func(ctx context.Context) *Stream {
			return BindJoin(ctx, FromSlice(ctx, lefts), sliceService(rights), []string{"x"}, 0)
		},
		"block-bind": func(ctx context.Context) *Stream {
			return BlockBindJoin(ctx, FromSlice(ctx, lefts), sliceBlockService(rights), []string{"x"}, 16, 4, 0)
		},
		"symmetric-hash": func(ctx context.Context) *Stream {
			return SymmetricHashJoin(ctx, FromSlice(ctx, lefts), FromSlice(ctx, rights), []string{"x"}, 4, 0)
		},
		"nested-loop": func(ctx context.Context) *Stream {
			return NestedLoopJoin(ctx, FromSlice(ctx, lefts), FromSlice(ctx, rights), []string{"x"}, 0)
		},
	}
	for name, mk := range streams {
		ctx, cancel := context.WithCancel(context.Background())
		out := mk(ctx)
		got := 0
		for batch := range out.Batches() {
			got += len(batch)
			if got >= 10 {
				cancel()
			}
		}
		cancel()
		if got < 10 {
			t.Errorf("%s: stream ended after %d answers, before cancellation", name, got)
		}
		// Reaching here at all means the stream closed after cancellation
		// instead of deadlocking; the watchdog below guards regressions.
	}
}

// TestBlockBindJoinCancellationDoesNotLeak gives the cancellation path a
// deadline: the output stream must close well before the test times out.
func TestBlockBindJoinCancellationDoesNotLeak(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	lefts := randomRelation(rng, []string{"x"}, 10000)
	rights := randomRelation(rng, []string{"x", "b"}, 500)
	ctx, cancel := context.WithCancel(context.Background())
	out := BlockBindJoin(ctx, FromSlice(ctx, lefts), sliceBlockService(rights), []string{"x"}, 8, 4, 0)
	<-out.Batches() // first answers prove the pipeline is running
	cancel()
	done := make(chan struct{})
	go func() {
		for range out.Batches() {
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("block bind join did not terminate after context cancellation")
	}
}

// TestCBlockBindJoinCanonicalSeedOrder feeds the columnar block bind join
// two permutations of the same left rows (duplicates included) as one
// block each: the seed lists the service receives must be identical, so
// a seed set always makes the same request and response-cache key.
func TestCBlockBindJoinCanonicalSeedOrder(t *testing.T) {
	d := dict.New()
	schema := NewSchema([]string{"x", "y"})
	var rows []sparql.Binding
	for i := 0; i < 12; i++ {
		rows = append(rows, sparql.Binding{
			"x": rdf.NewIRI(fmt.Sprintf("http://x/%d", i%7)),
			"y": rdf.NewLiteral(fmt.Sprint(i)),
		})
	}
	// Intern in a scrambled order so ID order differs from row order.
	for _, i := range []int{5, 0, 3, 6, 1, 4, 2} {
		d.Intern(rdf.NewIRI(fmt.Sprintf("http://x/%d", i)))
	}
	seedsFor := func(order []int) []sparql.Binding {
		left := NewCStream(schema, 1)
		b := NewColBuilder(schema)
		for _, i := range order {
			b.AppendBinding(rows[i], d)
		}
		left.SendBatch(context.Background(), b.Take())
		left.Close()
		var got []sparql.Binding
		service := func(ctx context.Context, seeds []sparql.Binding) *CStream {
			got = seeds
			s := NewCStream(NewSchema([]string{"x"}), 0)
			s.Close()
			return s
		}
		out := CBlockBindJoin(context.Background(), left, service, []string{"x"},
			NewSchema([]string{"x", "y"}), d, len(rows), 1, 0)
		for range out.Batches() {
		}
		return got
	}
	fwd := make([]int, len(rows))
	rev := make([]int, len(rows))
	for i := range rows {
		fwd[i] = i
		rev[i] = len(rows) - 1 - i
	}
	a, b := seedsFor(fwd), seedsFor(rev)
	if len(a) != 7 {
		t.Fatalf("got %d distinct seeds, want 7", len(a))
	}
	for i := range a {
		if a[i].FullKey() != b[i].FullKey() {
			t.Fatalf("seed %d differs between permutations: %s vs %s", i, a[i].FullKey(), b[i].FullKey())
		}
	}
}
