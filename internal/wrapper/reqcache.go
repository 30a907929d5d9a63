package wrapper

import (
	"context"
	"sync"

	"ontario/internal/dict"
	"ontario/internal/engine"
	"ontario/internal/netsim"
	"ontario/internal/sparql"
)

// ResponseCache memoizes the decoded, dictionary-encoded response of a
// wrapper request across the executions of one engine. The lake is static
// (the rdb generation moves only on loads), so a repeated request —
// serving layers replay the same prepared plans over and over — can skip
// translation, source evaluation and term interning entirely and stream
// its remembered ID rows, while the network-simulation contract is
// honored live at replay time: one latency sample per solution for
// per-answer retrieval, one per block response.
//
// Keys lean on pointer identity: a prepared plan's star and filter slices
// are immutable and live as long as the plan, so the slice identity (first
// element pointer plus length) identifies the request shape without
// hashing pattern trees. Seeds vary per bind-join invocation and are
// content-hashed, with the stored bindings compared on every hit so a
// hash collision degrades to a miss, never to a wrong answer. Entries are
// tagged with the source's content generation and dropped when it moves.
//
// The cache must be scoped to one engine: entries hold IDs of that
// engine's dictionary and pointers into its prepared plans.
type ResponseCache struct {
	mu      sync.RWMutex
	entries map[respKey]*respEntry
}

// respCacheCap bounds the cache; crossing it drops everything (request
// mixes that large are churn — distinct bind-join blocks — not reuse).
const respCacheCap = 4096

// NewResponseCache returns an empty cache.
func NewResponseCache() *ResponseCache {
	return &ResponseCache{entries: make(map[respKey]*respEntry)}
}

type respKey struct {
	source string
	// variant disambiguates wrapper configurations that answer the same
	// request differently (the SQL translation mode).
	variant uint8
	// star0/nstars and filt0/nfilt are the identity of the request's star
	// and filter slices (nil/0 when absent).
	star0  *StarQuery
	nstars int
	filt0  *sparql.Expr
	nfilt  int
	// block distinguishes the multi-seed block form, whose response
	// contract (one message per block) differs from the per-answer form.
	block bool
	// seedH is the content hash of Seed (per-answer form) or of the Seeds
	// list (block form); the entry verifies the actual bindings on hit.
	seedH uint64
}

// respEntry is one remembered response: the decoded ID rows flattened in
// schema order (stride IDs per row), plus everything needed to replay the
// request's observable side effects — the SQL texts it recorded and the
// delay contract it follows.
type respEntry struct {
	gen    uint64
	seed   sparql.Binding
	seeds  []sparql.Binding
	stride int
	nrows  int
	rows   []dict.ID
	sql    []string
	// perRow selects the delay contract: one latency sample per row
	// (per-answer retrieval) versus one per response (block form). An
	// empty per-row response samples nothing; an empty block still costs
	// its one message.
	perRow bool
}

// Len returns the number of remembered responses.
func (c *ResponseCache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.entries)
}

// respKeyFor builds the cache key of req as issued against source.
// Interning seed terms here is not wasted work: the miss path interns the
// same terms anyway, and on a hit they are already in the dictionary.
func respKeyFor(source string, variant uint8, req *Request, d *dict.Dict) respKey {
	k := respKey{
		source:  source,
		variant: variant,
		nstars:  len(req.Stars),
		nfilt:   len(req.Filters),
		block:   len(req.Seeds) > 0,
	}
	if len(req.Stars) > 0 {
		k.star0 = req.Stars[0]
	}
	if len(req.Filters) > 0 {
		k.filt0 = &req.Filters[0]
	}
	if k.block {
		h := uint64(0x9e3779b97f4a7c15)
		for _, s := range req.Seeds {
			h = mixResp(h ^ seedHash(s, d))
		}
		k.seedH = h
	} else {
		k.seedH = seedHash(req.Seed, d)
	}
	return k
}

// mixResp is the splitmix64 finalizer.
func mixResp(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// seedHash is an order-independent content hash of one seed binding: the
// dictionary makes term content a uint64, so each entry hashes as
// var-name-hash mixed with the term's ID, combined by XOR.
func seedHash(seed sparql.Binding, d *dict.Dict) uint64 {
	h := uint64(len(seed))
	for v, t := range seed {
		const prime = 1099511628211
		vh := uint64(14695981039346656037)
		for i := 0; i < len(v); i++ {
			vh = (vh ^ uint64(v[i])) * prime
		}
		h ^= mixResp(vh ^ (uint64(d.Intern(t)) * 0x9e3779b97f4a7c15))
	}
	return h
}

func bindingEq(a, b sparql.Binding) bool {
	if len(a) != len(b) {
		return false
	}
	for v, t := range a {
		if u, ok := b[v]; !ok || u != t {
			return false
		}
	}
	return true
}

// matches verifies the stored seed content against the request, guarding
// hash collisions in the key.
func (e *respEntry) matches(req *Request) bool {
	if len(e.seeds) != len(req.Seeds) {
		return false
	}
	for i := range e.seeds {
		if !bindingEq(e.seeds[i], req.Seeds[i]) {
			return false
		}
	}
	return bindingEq(e.seed, req.Seed)
}

// lookup returns the remembered response for k, or nil when there is
// none, the source's content moved past it, or the seed content differs
// (a key hash collision).
func (c *ResponseCache) lookup(k respKey, req *Request, gen uint64) *respEntry {
	c.mu.RLock()
	e := c.entries[k]
	c.mu.RUnlock()
	if e == nil || e.gen != gen || !e.matches(req) {
		return nil
	}
	return e
}

// store remembers e under k, dropping the whole cache at the cap.
func (c *ResponseCache) store(k respKey, e *respEntry) {
	c.mu.Lock()
	if len(c.entries) >= respCacheCap {
		clear(c.entries)
	}
	c.entries[k] = e
	c.mu.Unlock()
}

// stream replays the response on a fresh columnar stream, sampling the
// network simulation live — a cache hit changes where the rows come from,
// not what the execution observes: same rows, same per-message delay
// accounting, batched at the wrapper's current batch size.
func (e *respEntry) stream(ctx context.Context, sim *netsim.Simulator, schema *engine.Schema, batch int) *engine.CStream {
	out := engine.NewCStream(schema, 4)
	go func() {
		defer out.Close()
		if e.perRow {
			w := engine.NewColWriter(ctx, out, batch)
			defer w.Close()
			for i := 0; i < e.nrows; i++ {
				if sim != nil {
					sim.Delay()
				}
				if !w.AppendIDs(e.rows[i*e.stride : (i+1)*e.stride]) {
					return
				}
			}
			return
		}
		// Block form: the (possibly empty) response is one message.
		if sim != nil {
			sim.Delay()
		}
		if batch <= 0 {
			batch = engine.DefaultBatchSize
		}
		b := engine.NewColBuilderCap(schema, batch)
		for i := 0; i < e.nrows; i++ {
			b.AppendIDs(e.rows[i*e.stride : (i+1)*e.stride])
			if b.Rows() >= batch {
				if !out.SendBatch(ctx, b.Take()) {
					return
				}
			}
		}
		if b.Rows() > 0 {
			out.SendBatch(ctx, b.Take())
		}
	}()
	return out
}

// flattenSolutions interns row-model solutions into one flat ID block in
// schema order, reproducing the stream encoders' layout: the seed is
// interned once into a row template and each solution overwrites the
// positions it binds.
func flattenSolutions(seed sparql.Binding, sols []sparql.Binding, schema *engine.Schema, d *dict.Dict) ([]dict.ID, int) {
	stride := len(schema.Vars)
	template := make([]dict.ID, stride)
	for i, v := range schema.Vars {
		if t, ok := seed[v]; ok {
			template[i] = d.Intern(t)
		}
	}
	rows := make([]dict.ID, 0, len(sols)*stride)
	for _, b := range sols {
		start := len(rows)
		rows = append(rows, template...)
		row := rows[start:]
		for i, v := range schema.Vars {
			if t, ok := b[v]; ok {
				row[i] = d.Intern(t)
			}
		}
	}
	return rows, len(sols)
}
