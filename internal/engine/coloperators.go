package engine

import (
	"cmp"
	"context"
	"slices"
	"sort"
	"sync"

	"ontario/internal/dict"
	"ontario/internal/rdf"
	"ontario/internal/sparql"
)

// The columnar operators mirror the row operators' semantics exactly —
// same join compatibility, same streaming/flush behaviour, same
// draining discipline after a cancelled send — over the dictionary-
// encoded layout. The hot paths hash and compare raw uint64 IDs; terms
// are only materialized where a value is genuinely needed (FILTER
// expressions, ORDER BY keys, bind-join seeds crossing the wrapper
// boundary).
//
// Join-key semantics, matching Binding.Key: two rows fall in the same
// bucket only when their join-variable IDs are EXACTLY equal, with
// unbound (0) a value of its own — a row with ?v unbound never hash-joins
// a row with ?v bound, just like the row model's string keys. The
// remaining shared variables are then checked with the laxer Compatible
// rule (unbound matches anything).

// sharedPairs returns the column-position pairs of the variables both
// schemas carry, excluding the given join variables (those are handled by
// exact key equality).
func sharedPairs(l, r *Schema, exclude []string) (lp, rp []int) {
	ex := make(map[string]bool, len(exclude))
	for _, v := range exclude {
		ex[v] = true
	}
	for i, v := range l.Vars {
		if ex[v] {
			continue
		}
		if j := r.Pos(v); j >= 0 {
			lp = append(lp, i)
			rp = append(rp, j)
		}
	}
	return lp, rp
}

// hashRowPos combines the IDs of one row's key columns into a hash; a
// position of -1 (a variable the schema does not carry) contributes
// Unbound.
func hashRowPos(b *ColBatch, row int, pos []int) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, c := range pos {
		var id dict.ID
		if c >= 0 {
			id = b.Cols[c][row]
		}
		h = mix64(h ^ uint64(id))
	}
	return h
}

// compatBB reports whether row lr of l and row rr of r agree on the
// pre-resolved shared column pairs (Compatible semantics: unbound on
// either side passes).
func compatBB(l *ColBatch, lr int, r *ColBatch, rr int, lp, rp []int) bool {
	for i := range lp {
		a, b := l.Cols[lp[i]][lr], r.Cols[rp[i]][rr]
		if a != dict.Unbound && b != dict.Unbound && a != b {
			return false
		}
	}
	return true
}

// colTable is a hash table over dictionary-encoded rows: the rows are
// stored flattened (stride IDs per row) in one arena, and the buckets map
// a key hash to row indices. Collisions are resolved by the caller
// comparing the key columns of the candidate rows. Owned by one goroutine.
type colTable struct {
	stride  int
	rows    int
	data    []dict.ID
	buckets map[uint64][]int32
}

func newColTable(stride int) *colTable {
	return &colTable{stride: stride, buckets: make(map[uint64][]int32)}
}

// insert appends row r of b and returns its index. A zero-column schema
// (a cross-product input binding nothing) still counts rows: every row
// gets its own index, so the cross product multiplies correctly.
func (t *colTable) insert(b *ColBatch, r int, h uint64) int32 {
	idx := int32(t.rows)
	t.rows++
	for c := 0; c < t.stride; c++ {
		t.data = append(t.data, b.Cols[c][r])
	}
	t.buckets[h] = append(t.buckets[h], idx)
	return idx
}

// id returns the ID at column pos of a stored row; pos < 0 means a
// variable the stored schema does not carry (Unbound).
func (t *colTable) id(row int32, pos int) dict.ID {
	if pos < 0 {
		return dict.Unbound
	}
	return t.data[int(row)*t.stride+pos]
}

// keysEqualBT reports exact key equality between row r of batch b (key
// columns bPos) and stored row tr of t (key columns tPos).
func keysEqualBT(b *ColBatch, r int, bPos []int, t *colTable, tr int32, tPos []int) bool {
	for i := range bPos {
		var a dict.ID
		if bPos[i] >= 0 {
			a = b.Cols[bPos[i]][r]
		}
		if a != t.id(tr, tPos[i]) {
			return false
		}
	}
	return true
}

// compatBT checks Compatible semantics between a batch row and a stored
// table row over pre-resolved shared pairs.
func compatBT(b *ColBatch, r int, bPos []int, t *colTable, tr int32, tPos []int) bool {
	for i := range bPos {
		var a dict.ID
		if bPos[i] >= 0 {
			a = b.Cols[bPos[i]][r]
		}
		o := t.id(tr, tPos[i])
		if a != dict.Unbound && o != dict.Unbound && a != o {
			return false
		}
	}
	return true
}

// cEmitter is the columnar emitter: it accumulates result rows and
// forwards batches of at most size, going dead after a failed send like
// its row counterpart. Not safe for concurrent use.
type cEmitter struct {
	ctx  context.Context
	out  *CStream
	size int
	st   *OpStats
	b    *ColBuilder
	dead bool
}

func newCEmitter(ctx context.Context, out *CStream, size int, st *OpStats) *cEmitter {
	return &cEmitter{ctx: ctx, out: out, size: size, st: st, b: NewColBuilderCap(out.schema, size)}
}

func (e *cEmitter) ok() bool { return !e.dead }

func (e *cEmitter) full() {
	if e.b.Rows() >= e.size {
		e.flush()
	}
}

// row forwards one row of b mapped into the output schema.
func (e *cEmitter) row(b *ColBatch, r int, mapping []int) {
	if e.dead {
		return
	}
	e.b.AppendRow(b, r, mapping)
	e.full()
}

// ids forwards one row given directly as output-schema IDs.
func (e *cEmitter) ids(ids []dict.ID) {
	if e.dead {
		return
	}
	e.b.AppendIDs(ids)
	e.full()
}

// merge forwards the merge of two batch rows (left wins when bound).
func (e *cEmitter) merge(l *ColBatch, lr int, lmap []int, r *ColBatch, rr int, rmap []int) {
	if e.dead {
		return
	}
	e.b.AppendMerged(l, lr, lmap, r, rr, rmap)
	e.full()
}

// mergeBT forwards the merge of a batch row (left side) with a stored
// table row (right side).
func (e *cEmitter) mergeBT(l *ColBatch, lr int, lmap []int, t *colTable, tr int32, tmap []int) {
	if e.dead {
		return
	}
	row := e.b.growRow()
	for c := range e.b.cols {
		id := dict.Unbound
		if lc := lmap[c]; lc >= 0 {
			id = l.Cols[lc][lr]
		}
		if id == dict.Unbound {
			if tc := tmap[c]; tc >= 0 {
				id = t.id(tr, tc)
			}
		}
		if id != dict.Unbound {
			e.b.cols[c][row] = id
			e.b.setBit(c, row)
		}
	}
	e.full()
}

// mergeTB forwards the merge of a stored table row (left side) with a
// batch row (right side).
func (e *cEmitter) mergeTB(t *colTable, tr int32, tmap []int, r *ColBatch, rr int, rmap []int) {
	if e.dead {
		return
	}
	row := e.b.growRow()
	for c := range e.b.cols {
		id := dict.Unbound
		if tc := tmap[c]; tc >= 0 {
			id = t.id(tr, tc)
		}
		if id == dict.Unbound {
			if rc := rmap[c]; rc >= 0 {
				id = r.Cols[rc][rr]
			}
		}
		if id != dict.Unbound {
			e.b.cols[c][row] = id
			e.b.setBit(c, row)
		}
	}
	e.full()
}

// flush forwards the buffered partial batch (typically at a morsel or
// input-batch boundary, keeping answers streaming).
func (e *cEmitter) flush() {
	if e.b.Rows() == 0 {
		return
	}
	batch := e.b.Take()
	if e.dead {
		return
	}
	if !e.st.sendC(e.ctx, e.out, batch) {
		e.dead = true
	}
}

// cMorsel is one partitioned fragment of an input batch with its join-key
// hashes precomputed by the reader.
type cMorsel struct {
	fromLeft bool
	hashes   []uint64
	batch    *ColBatch
}

// CSymmetricHashJoin is the columnar symmetric hash join: identical
// morsel-sharded dataflow to SymmetricHashJoin, but the shard hash, the
// bucket key and the compatibility check all operate on raw dictionary
// IDs — no string key is ever built. out is the operator's output schema
// (the plan node's variables); par and batch as in the row operator.
func CSymmetricHashJoin(ctx context.Context, left, right *CStream, joinVars []string, out *Schema, par, batch int) *CStream {
	if par < 1 {
		par = 1
	}
	if batch <= 0 {
		batch = DefaultBatchSize
	}
	st := StatsFrom(ctx)
	outS := NewCStream(out, bufBatches(batch))

	lKey := left.schema.Positions(joinVars)
	rKey := right.schema.Positions(joinVars)
	pairL, pairR := sharedPairs(left.schema, right.schema, joinVars)
	outL := make([]int, len(out.Vars))
	outR := make([]int, len(out.Vars))
	for i, v := range out.Vars {
		outL[i] = left.schema.Pos(v)
		outR[i] = right.schema.Pos(v)
	}

	shardCh := make([]chan cMorsel, par)
	for i := range shardCh {
		shardCh[i] = make(chan cMorsel, 2)
	}

	var workers sync.WaitGroup
	workers.Add(par)
	for i := 0; i < par; i++ {
		go func(in <-chan cMorsel) {
			defer workers.Done()
			leftTbl := newColTable(len(left.schema.Vars))
			rightTbl := newColTable(len(right.schema.Vars))
			em := newCEmitter(ctx, outS, batch, st)
			for m := range in {
				if !em.ok() {
					continue // keep consuming so the readers can finish
				}
				st.addHashEntries(m.batch.Len)
				if m.fromLeft {
					for r := 0; r < m.batch.Len; r++ {
						h := m.hashes[r]
						leftTbl.insert(m.batch, r, h)
						for _, oi := range rightTbl.buckets[h] {
							if !keysEqualBT(m.batch, r, lKey, rightTbl, oi, rKey) {
								continue
							}
							if !compatBT(m.batch, r, pairL, rightTbl, oi, pairR) {
								continue
							}
							em.mergeBT(m.batch, r, outL, rightTbl, oi, outR)
						}
					}
				} else {
					for r := 0; r < m.batch.Len; r++ {
						h := m.hashes[r]
						rightTbl.insert(m.batch, r, h)
						for _, oi := range leftTbl.buckets[h] {
							if !keysEqualBT(m.batch, r, rKey, leftTbl, oi, lKey) {
								continue
							}
							if !compatBT(m.batch, r, pairR, leftTbl, oi, pairL) {
								continue
							}
							em.mergeTB(leftTbl, oi, outL, m.batch, r, outR)
						}
					}
				}
				em.flush() // morsel boundary: keep answers streaming
			}
		}(shardCh[i])
	}

	var readers sync.WaitGroup
	readers.Add(2)
	consume := func(in *CStream, keyPos []int, fromLeft bool) {
		defer readers.Done()
		ident := in.schema.Positions(in.schema.Vars)
		for {
			b, open := st.recvC(in)
			if !open {
				return
			}
			hashes := make([]uint64, b.Len)
			for r := 0; r < b.Len; r++ {
				hashes[r] = hashRowPos(b, r, keyPos)
			}
			if par == 1 {
				shardCh[0] <- cMorsel{fromLeft: fromLeft, hashes: hashes, batch: b}
				continue
			}
			parts := make([]*ColBuilder, par)
			partHashes := make([][]uint64, par)
			for r := 0; r < b.Len; r++ {
				s := int(hashes[r] % uint64(par))
				if parts[s] == nil {
					parts[s] = NewColBuilder(in.schema)
				}
				parts[s].AppendRow(b, r, ident)
				partHashes[s] = append(partHashes[s], hashes[r])
			}
			for s := range parts {
				if parts[s] != nil {
					shardCh[s] <- cMorsel{fromLeft: fromLeft, hashes: partHashes[s], batch: parts[s].Take()}
				}
			}
		}
	}

	go consume(left, lKey, true)
	go consume(right, rKey, false)
	go func() {
		readers.Wait()
		for _, ch := range shardCh {
			close(ch)
		}
		workers.Wait()
		st.close()
		outS.Close()
	}()
	return outS
}

// CService produces a columnar stream for a seed-instantiated request;
// the seed crosses the wrapper boundary as a materialized binding because
// remote hops and SQL translation speak terms, not IDs.
type CService func(ctx context.Context, seed sparql.Binding) *CStream

// seedBinding materializes the bound join variables of one row as a seed
// (Project semantics: unbound variables are omitted).
func seedBinding(b *ColBatch, r int, joinVars []string, pos []int, d *dict.Dict) sparql.Binding {
	seed := sparql.NewBinding()
	for i, p := range pos {
		if p < 0 {
			continue
		}
		if id := b.Cols[p][r]; id != dict.Unbound {
			seed[joinVars[i]] = d.MustLookup(id)
		}
	}
	return seed
}

// CBindJoin is the columnar dependent join: per left row it extracts the
// bound join variables as a seed, invokes the right service, and merges
// compatible results. Output batching matches the row operator: a
// flush-interval writer accumulates across seeds.
func CBindJoin(ctx context.Context, left *CStream, right CService, joinVars []string, out *Schema, d *dict.Dict, batch int) *CStream {
	if batch <= 0 {
		batch = DefaultBatchSize
	}
	st := StatsFrom(ctx)
	outS := NewCStream(out, bufBatches(batch))
	go func() {
		defer outS.Close()
		defer st.close()
		lPos := left.schema.Positions(joinVars)
		outL := make([]int, len(out.Vars))
		for i, v := range out.Vars {
			outL[i] = left.schema.Pos(v)
		}
		w := NewColWriter(ctx, outS, batch)
		w.SetStats(st)
		defer w.Close()
		cancelled := false
		var pairL, pairR, outR []int
		var rSchema *Schema
		for {
			lb, open := st.recvC(left)
			if !open {
				break
			}
			for lr := 0; lr < lb.Len; lr++ {
				if cancelled {
					continue
				}
				seed := seedBinding(lb, lr, joinVars, lPos, d)
				st.AddBlock()
				rs := right(ctx, seed)
				if rSchema != rs.Schema() {
					// Resolve the right-side layout once per distinct schema
					// (service streams share one schema per plan node).
					rSchema = rs.Schema()
					pairL, pairR = sharedPairs(left.schema, rSchema, nil)
					outR = make([]int, len(out.Vars))
					for i, v := range out.Vars {
						outR[i] = rSchema.Pos(v)
					}
				}
				for rb := range rs.Batches() {
					for rr := 0; rr < rb.Len; rr++ {
						if cancelled || !compatBB(lb, lr, rb, rr, pairL, pairR) {
							continue
						}
						if !w.AppendMerged(lb, lr, outL, rb, rr, outR) {
							cancelled = true
						}
					}
				}
			}
		}
	}()
	return outS
}

// CBlockService answers a whole block of seeds in one invocation (see
// BlockService for the contract; an empty seed list means unconstrained).
type CBlockService func(ctx context.Context, seeds []sparql.Binding) *CStream

// CBlockBindJoin is the columnar block bind join: left rows are gathered
// into blocks, each block's distinct seeds (deduplicated on raw ID tuples
// — no string keys) go to the right service in one invocation, and up to
// concurrency blocks are in flight at once.
func CBlockBindJoin(ctx context.Context, left *CStream, right CBlockService, joinVars []string, out *Schema, d *dict.Dict, blockSize, concurrency, batch int) *CStream {
	if blockSize < 1 {
		blockSize = 1
	}
	if concurrency < 1 {
		concurrency = 1
	}
	if batch <= 0 {
		batch = DefaultBatchSize
	}
	st := StatsFrom(ctx)
	outS := NewCStream(out, bufBatches(batch))
	go func() {
		defer outS.Close()
		defer st.close()
		lPos := left.schema.Positions(joinVars)
		ident := left.schema.Positions(left.schema.Vars)
		outL := make([]int, len(out.Vars))
		for i, v := range out.Vars {
			outL[i] = left.schema.Pos(v)
		}
		sem := make(chan struct{}, concurrency)
		var wg sync.WaitGroup
		var pmu sync.Mutex // guards the lazily resolved right-side layout
		var pairL, pairR, outR []int
		var rSchema *Schema
		dispatch := func(block *ColBatch) {
			// Distinct seeds by their join-variable ID tuple; a row with no
			// bound join variable joins with every right solution, so it
			// forces an unconstrained request for the whole block.
			var seedRows []int // a block row per distinct seed
			seedTbl := newColTable(len(lPos))
			unconstrained := false
			for r := 0; r < block.Len && !unconstrained; r++ {
				allUnbound := true
				for _, p := range lPos {
					if p >= 0 && block.Cols[p][r] != dict.Unbound {
						allUnbound = false
						break
					}
				}
				if allUnbound {
					unconstrained = true
					break
				}
				h := hashRowPos(block, r, lPos)
				dup := false
				for _, si := range seedTbl.buckets[h] {
					eq := true
					for i, p := range lPos {
						var id dict.ID
						if p >= 0 {
							id = block.Cols[p][r]
						}
						if id != seedTbl.id(si, i) {
							eq = false
							break
						}
					}
					if eq {
						dup = true
						break
					}
				}
				if dup {
					continue
				}
				idx := int32(len(seedRows))
				for _, p := range lPos {
					var id dict.ID
					if p >= 0 {
						id = block.Cols[p][r]
					}
					seedTbl.data = append(seedTbl.data, id)
				}
				seedTbl.buckets[h] = append(seedTbl.buckets[h], idx)
				seedRows = append(seedRows, r)
			}
			// Seeds go out sorted by their ID tuple, so a seed set makes
			// the same request (and response-cache key) whatever order its
			// rows arrived in.
			var seeds []sparql.Binding
			if !unconstrained {
				slices.SortFunc(seedRows, func(a, b int) int {
					for _, p := range lPos {
						if p < 0 {
							continue
						}
						if c := cmp.Compare(block.Cols[p][a], block.Cols[p][b]); c != 0 {
							return c
						}
					}
					return 0
				})
				seeds = make([]sparql.Binding, len(seedRows))
				for i, r := range seedRows {
					seeds[i] = seedBinding(block, r, joinVars, lPos, d)
				}
			}
			sem <- struct{}{}
			wg.Add(1)
			st.AddBlock()
			go func() {
				defer wg.Done()
				defer func() { <-sem }()
				em := newCEmitter(ctx, outS, batch, st)
				rs := right(ctx, seeds)
				pmu.Lock()
				if rSchema != rs.Schema() {
					rSchema = rs.Schema()
					pairL, pairR = sharedPairs(left.schema, rSchema, nil)
					outR = make([]int, len(out.Vars))
					for i, v := range out.Vars {
						outR[i] = rSchema.Pos(v)
					}
				}
				pL, pR, oR := pairL, pairR, outR
				pmu.Unlock()
				for rb := range rs.Batches() {
					if !em.ok() {
						continue // drain so the service's producer can finish
					}
					for rr := 0; rr < rb.Len; rr++ {
						for lr := 0; lr < block.Len; lr++ {
							if compatBB(block, lr, rb, rr, pL, pR) {
								em.merge(block, lr, outL, rb, rr, oR)
							}
						}
					}
					em.flush()
				}
			}()
		}
		blockB := NewColBuilder(left.schema)
		for {
			lb, open := st.recvC(left)
			if !open {
				break
			}
			for r := 0; r < lb.Len; r++ {
				blockB.AppendRow(lb, r, ident)
				if blockB.Rows() >= blockSize {
					dispatch(blockB.Take())
				}
			}
		}
		if blockB.Rows() > 0 {
			dispatch(blockB.Take())
		}
		wg.Wait()
	}()
	return outS
}

// CNestedLoopJoin materializes the right input and joins every left row
// against it; the blocking baseline, columnar.
func CNestedLoopJoin(ctx context.Context, left, right *CStream, joinVars []string, out *Schema, batch int) *CStream {
	if batch <= 0 {
		batch = DefaultBatchSize
	}
	st := StatsFrom(ctx)
	outS := NewCStream(out, bufBatches(batch))
	go func() {
		defer outS.Close()
		defer st.close()
		rights := st.collectC(right)
		pairL, pairR := sharedPairs(left.schema, right.schema, nil)
		outL := make([]int, len(out.Vars))
		outR := make([]int, len(out.Vars))
		for i, v := range out.Vars {
			outL[i] = left.schema.Pos(v)
			outR[i] = right.schema.Pos(v)
		}
		em := newCEmitter(ctx, outS, batch, st)
		for {
			lb, open := st.recvC(left)
			if !open {
				break
			}
			if !em.ok() {
				continue // drain the left so its producer can finish
			}
			for lr := 0; lr < lb.Len; lr++ {
				for rr := 0; rr < rights.Len; rr++ {
					if compatBB(lb, lr, rights, rr, pairL, pairR) {
						em.merge(lb, lr, outL, rights, rr, outR)
					}
				}
			}
			em.flush()
		}
	}()
	return outS
}

// scratchEval evaluates row-model filter expressions against columnar
// rows through one reusable scratch binding: only the variables the
// expressions actually reference are materialized, and the map is cleared
// and refilled per row instead of allocated.
type scratchEval struct {
	vars []string
	pos  []int
	m    sparql.Binding
	d    *dict.Dict
}

func newScratchEval(exprs []sparql.Expr, s *Schema, d *dict.Dict) *scratchEval {
	seen := map[string]bool{}
	var vars []string
	for _, e := range exprs {
		for _, v := range e.Vars() {
			if !seen[v] {
				seen[v] = true
				vars = append(vars, v)
			}
		}
	}
	return &scratchEval{vars: vars, pos: s.Positions(vars), m: sparql.NewBinding(), d: d}
}

// bind fills the scratch binding from row r of b (a variable the schema
// does not carry, or an unbound column, stays absent — expression
// evaluation then errors and EvalBool yields false, the row semantics).
func (s *scratchEval) bind(b *ColBatch, r int) sparql.Binding {
	clear(s.m)
	for i, p := range s.pos {
		if p < 0 {
			continue
		}
		if id := b.Cols[p][r]; id != dict.Unbound {
			s.m[s.vars[i]] = s.d.MustLookup(id)
		}
	}
	return s.m
}

// bindIDs fills the scratch binding from a raw output-schema row.
func (s *scratchEval) bindIDs(ids []dict.ID) sparql.Binding {
	clear(s.m)
	for i, p := range s.pos {
		if p < 0 {
			continue
		}
		if id := ids[p]; id != dict.Unbound {
			s.m[s.vars[i]] = s.d.MustLookup(id)
		}
	}
	return s.m
}

// CLeftJoin extends every left row with the compatible right rows
// passing the filters, emitting the left row unextended when none match
// (SPARQL OPTIONAL); the right input is materialized.
func CLeftJoin(ctx context.Context, left, right *CStream, filters []sparql.Expr, out *Schema, d *dict.Dict, batch int) *CStream {
	if batch <= 0 {
		batch = DefaultBatchSize
	}
	st := StatsFrom(ctx)
	outS := NewCStream(out, bufBatches(batch))
	go func() {
		defer outS.Close()
		defer st.close()
		rights := st.collectC(right)
		pairL, pairR := sharedPairs(left.schema, right.schema, nil)
		outL := make([]int, len(out.Vars))
		outR := make([]int, len(out.Vars))
		for i, v := range out.Vars {
			outL[i] = left.schema.Pos(v)
			outR[i] = right.schema.Pos(v)
		}
		var ev *scratchEval
		if len(filters) > 0 {
			ev = newScratchEval(filters, out, d)
		}
		merged := make([]dict.ID, len(out.Vars))
		em := newCEmitter(ctx, outS, batch, st)
		for {
			lb, open := st.recvC(left)
			if !open {
				break
			}
			if !em.ok() {
				continue // drain the left so its producer can finish
			}
			for lr := 0; lr < lb.Len; lr++ {
				matched := false
				for rr := 0; rr < rights.Len; rr++ {
					if !compatBB(lb, lr, rights, rr, pairL, pairR) {
						continue
					}
					if ev != nil {
						for c := range merged {
							id := dict.Unbound
							if lc := outL[c]; lc >= 0 {
								id = lb.Cols[lc][lr]
							}
							if id == dict.Unbound {
								if rc := outR[c]; rc >= 0 {
									id = rights.Cols[rc][rr]
								}
							}
							merged[c] = id
						}
						m := ev.bindIDs(merged)
						ok := true
						for _, f := range filters {
							if !sparql.EvalBool(f, m) {
								ok = false
								break
							}
						}
						if !ok {
							continue
						}
						matched = true
						em.ids(merged)
						continue
					}
					matched = true
					em.merge(lb, lr, outL, rights, rr, outR)
				}
				if !matched {
					em.row(lb, lr, outL)
				}
			}
			em.flush()
		}
	}()
	return outS
}

// CFilter keeps the rows satisfying every expression. All-pass batches
// are forwarded without a copy.
func CFilter(ctx context.Context, in *CStream, exprs []sparql.Expr, d *dict.Dict, batch int) *CStream {
	if len(exprs) == 0 {
		return in
	}
	st := StatsFrom(ctx)
	out := NewCStream(in.schema, bufBatches(batch))
	go func() {
		defer out.Close()
		defer st.close()
		ev := newScratchEval(exprs, in.schema, d)
		ident := in.schema.Positions(in.schema.Vars)
		var kept []int32
		for {
			b, open := st.recvC(in)
			if !open {
				return
			}
			kept = kept[:0]
			for r := 0; r < b.Len; r++ {
				m := ev.bind(b, r)
				ok := true
				for _, e := range exprs {
					if !sparql.EvalBool(e, m) {
						ok = false
						break
					}
				}
				if ok {
					kept = append(kept, int32(r))
				}
			}
			if len(kept) == b.Len {
				if !st.sendC(ctx, out, b) {
					return
				}
				continue
			}
			if len(kept) == 0 {
				continue
			}
			nb := NewColBuilder(in.schema)
			for _, r := range kept {
				nb.AppendRow(b, int(r), ident)
			}
			if !st.sendC(ctx, out, nb.Take()) {
				return
			}
		}
	}()
	return out
}

// CProject restricts batches to vars. Projection is column selection: a
// projected batch shares the kept columns' backing arrays with its input
// — O(columns) per batch, no per-row work at all. A projected variable
// the input schema does not carry yields an all-unbound column.
func CProject(ctx context.Context, in *CStream, vars []string, batch int) *CStream {
	st := StatsFrom(ctx)
	schema := NewSchema(vars)
	pos := in.schema.Positions(vars)
	out := NewCStream(schema, bufBatches(batch))
	go func() {
		defer out.Close()
		defer st.close()
		for {
			b, open := st.recvC(in)
			if !open {
				return
			}
			nb := &ColBatch{
				Schema:  schema,
				Len:     b.Len,
				Cols:    make([][]dict.ID, len(vars)),
				Present: make([][]uint64, len(vars)),
			}
			for c, p := range pos {
				if p >= 0 {
					nb.Cols[c] = b.Cols[p]
					nb.Present[c] = b.Present[p]
				} else {
					nb.Cols[c] = make([]dict.ID, b.Len)
					nb.Present[c] = make([]uint64, (b.Len+63)/64)
				}
			}
			if !st.sendC(ctx, out, nb) {
				return
			}
		}
	}()
	return out
}

// CDistinct drops duplicate rows: the seen-set hashes the full ID tuple
// and verifies collisions against an arena of stored rows — the full-key
// string of the row model is gone.
func CDistinct(ctx context.Context, in *CStream, batch int) *CStream {
	st := StatsFrom(ctx)
	out := NewCStream(in.schema, bufBatches(batch))
	go func() {
		defer out.Close()
		defer st.close()
		allPos := in.schema.Positions(in.schema.Vars)
		seen := newColTable(len(in.schema.Vars))
		var kept []int32
		for {
			b, open := st.recvC(in)
			if !open {
				return
			}
			kept = kept[:0]
			for r := 0; r < b.Len; r++ {
				h := hashRowPos(b, r, allPos)
				dup := false
				for _, si := range seen.buckets[h] {
					eq := true
					for c := 0; c < seen.stride; c++ {
						if b.Cols[c][r] != seen.id(si, c) {
							eq = false
							break
						}
					}
					if eq {
						dup = true
						break
					}
				}
				if dup {
					continue
				}
				seen.insert(b, r, h)
				kept = append(kept, int32(r))
			}
			if len(kept) == b.Len {
				if !st.sendC(ctx, out, b) {
					return
				}
				continue
			}
			if len(kept) == 0 {
				continue
			}
			nb := NewColBuilder(in.schema)
			for _, r := range kept {
				nb.AppendRow(b, int(r), allPos)
			}
			if !st.sendC(ctx, out, nb.Take()) {
				return
			}
		}
	}()
	return out
}

// CLimit passes through at most n rows, draining the rest.
func CLimit(ctx context.Context, in *CStream, n, batch int) *CStream {
	st := StatsFrom(ctx)
	out := NewCStream(in.schema, bufBatches(batch))
	go func() {
		defer out.Close()
		defer st.close()
		ident := in.schema.Positions(in.schema.Vars)
		count := 0
		for {
			b, open := st.recvC(in)
			if !open {
				return
			}
			if count >= n {
				continue // keep draining so producers are not blocked forever
			}
			if count+b.Len > n {
				nb := NewColBuilder(in.schema)
				for r := 0; r < n-count; r++ {
					nb.AppendRow(b, r, ident)
				}
				b = nb.Take()
			}
			count += b.Len
			if !st.sendC(ctx, out, b) {
				return
			}
		}
	}()
	return out
}

// COffset skips the first n rows.
func COffset(ctx context.Context, in *CStream, n, batch int) *CStream {
	st := StatsFrom(ctx)
	out := NewCStream(in.schema, bufBatches(batch))
	go func() {
		defer out.Close()
		defer st.close()
		ident := in.schema.Positions(in.schema.Vars)
		skipped := 0
		for {
			b, open := st.recvC(in)
			if !open {
				return
			}
			if skipped < n {
				drop := n - skipped
				if drop >= b.Len {
					skipped += b.Len
					continue
				}
				skipped += drop
				nb := NewColBuilder(in.schema)
				for r := drop; r < b.Len; r++ {
					nb.AppendRow(b, r, ident)
				}
				b = nb.Take()
			}
			if !st.sendC(ctx, out, b) {
				return
			}
		}
	}()
	return out
}

// CUnion merges the inputs in batch-arrival order, padding each child's
// batches to the union schema (variables a child does not bind stay
// unbound). A child whose schema already matches forwards batches
// untouched.
func CUnion(ctx context.Context, out *Schema, batch int, ins ...*CStream) *CStream {
	st := StatsFrom(ctx)
	outS := NewCStream(out, bufBatches(batch))
	var wg sync.WaitGroup
	wg.Add(len(ins))
	for _, in := range ins {
		mapping := in.schema.Positions(out.Vars)
		same := len(in.schema.Vars) == len(out.Vars)
		if same {
			for i, p := range mapping {
				if p != i {
					same = false
					break
				}
			}
		}
		go func(in *CStream, mapping []int, same bool) {
			defer wg.Done()
			draining := false
			for {
				b, open := st.recvC(in)
				if !open {
					return
				}
				if draining {
					continue // drain the input so its producer can finish
				}
				if !same {
					nb := NewColBuilder(out)
					for r := 0; r < b.Len; r++ {
						nb.AppendRow(b, r, mapping)
					}
					b = nb.Take()
					b.Schema = out
				}
				if !st.sendC(ctx, outS, b) {
					draining = true
				}
			}
		}(in, mapping, same)
	}
	go func() {
		wg.Wait()
		st.close()
		outS.Close()
	}()
	return outS
}

// COrderBy materializes the input and emits it sorted; a blocking
// operator. Only the ORDER BY key columns are materialized to terms —
// the sort permutes row indices and the output is rebuilt from IDs.
func COrderBy(ctx context.Context, in *CStream, keys []sparql.OrderKey, d *dict.Dict, batch int) *CStream {
	if batch <= 0 {
		batch = DefaultBatchSize
	}
	st := StatsFrom(ctx)
	out := NewCStream(in.schema, bufBatches(batch))
	go func() {
		defer out.Close()
		defer st.close()
		all := st.collectC(in)
		ident := in.schema.Positions(in.schema.Vars)
		// Decode just the key columns (an unbound or uncarried key yields
		// the zero term, exactly like a missing map entry in SortBindings).
		keyTerms := make([][]rdf.Term, len(keys))
		for k, key := range keys {
			terms := make([]rdf.Term, all.Len)
			if p := in.schema.Pos(key.Var); p >= 0 {
				for r := 0; r < all.Len; r++ {
					if id := all.Cols[p][r]; id != dict.Unbound {
						terms[r] = d.MustLookup(id)
					}
				}
			}
			keyTerms[k] = terms
		}
		idx := make([]int, all.Len)
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(i, j int) bool {
			for k, key := range keys {
				c := sparql.CompareOrderTerms(keyTerms[k][idx[i]], keyTerms[k][idx[j]])
				if c == 0 {
					continue
				}
				if key.Desc {
					return c > 0
				}
				return c < 0
			}
			return false
		})
		nb := NewColBuilder(in.schema)
		for _, r := range idx {
			nb.AppendRow(all, r, ident)
			if nb.Rows() >= batch {
				if !st.sendC(ctx, out, nb.Take()) {
					return
				}
			}
		}
		if nb.Rows() > 0 {
			st.sendC(ctx, out, nb.Take())
		}
	}()
	return out
}
