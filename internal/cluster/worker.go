package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ontario/internal/bridge"
	"ontario/internal/core"
	"ontario/internal/dict"
	"ontario/internal/engine"
	"ontario/internal/sparql"
	"ontario/internal/wrapper"
)

// WorkerConfig configures a cluster worker.
type WorkerConfig struct {
	// Partition/Of identify the worker's hash-partition of the lake
	// (informational: the caller partitions the lake before NewWorker).
	Partition, Of int
	// MaxConcurrent bounds the fragments executing at once; excess tasks
	// queue. 0 means 16.
	MaxConcurrent int
	// Logger receives per-task failures; nil discards them.
	Logger *log.Logger
}

// epochSeq de-collides session epochs minted in the same nanosecond
// (in-process test pools start several workers at once).
var epochSeq atomic.Int64

// Worker executes plan fragments against one partition of the lake: scan
// tasks run a wrapper request through the partitioned catalog, join tasks
// symmetric-hash-join the batches the coordinator shuffles in, and frag
// tasks run a whole co-partitioned plan subtree locally. One TCP
// connection carries many concurrent task streams; the worker greets
// every accepted connection with a hello on stream 0 carrying its
// session epoch, so a coordinator can tell reconnects from restarts.
type Worker struct {
	exec   *core.Executor
	d      *dict.Dict
	part   int
	of     int
	epoch  int64
	scheme string
	sem    chan struct{}
	logger *log.Logger

	ctx    context.Context
	cancel context.CancelFunc

	lis    net.Listener
	wg     sync.WaitGroup // connection handlers
	taskWG sync.WaitGroup // in-flight task streams

	mu    sync.Mutex
	conns map[*workerConn]struct{}

	// shapes interns decoded request shapes (stars and filters) by their
	// wire encoding, so repeated tasks hand the wrappers the same slices:
	// the response cache keys on their identity.
	shapeMu sync.Mutex
	shapes  map[string]*wrapper.Request

	active atomic.Int64
	queued atomic.Int64

	// Counters folded in from connections that have since closed; Info
	// adds the live connections' codecs on top.
	fBatchesIn, fBatchesOut  atomic.Int64
	fBytesIn, fBytesOut      atomic.Int64
	fShufBatches, fShufBytes atomic.Int64
	fDeltaBytes              atomic.Int64
}

// NewWorker returns a worker executing against the (already partitioned)
// public lake.
func NewWorker(publicLake any, cfg WorkerConfig) (*Worker, error) {
	cat := bridge.LakeCatalog(publicLake)
	if cat == nil {
		return nil, fmt.Errorf("cluster: NewWorker requires a lake built with lake.NewBuilder")
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 16
	}
	// The advertised scheme requires every source to record the same
	// partition identity this worker claims; a mixed or unpartitioned
	// catalog advertises none, which vetoes co-partitioned pushdown.
	scheme := ""
	if ids := cat.SourceIDs(); len(ids) > 0 {
		scheme = PartitionScheme
		for _, id := range ids {
			p := cat.Source(id).Partition
			if p == nil || p.Scheme != PartitionScheme || p.Part != cfg.Partition || p.Of != cfg.Of {
				scheme = ""
				break
			}
		}
	}
	exec := core.NewExecutor(cat)
	ctx, cancel := context.WithCancel(context.Background())
	return &Worker{
		exec:   exec,
		d:      exec.Dict(),
		part:   cfg.Partition,
		of:     cfg.Of,
		epoch:  time.Now().UnixNano() + epochSeq.Add(1),
		scheme: scheme,
		sem:    make(chan struct{}, cfg.MaxConcurrent),
		logger: cfg.Logger,
		ctx:    ctx,
		cancel: cancel,
		conns:  make(map[*workerConn]struct{}),
		shapes: make(map[string]*wrapper.Request),
	}, nil
}

// shapeCap bounds the interned request shapes; crossing it drops them all
// (a shape mix that large is ad-hoc churn, not reuse).
const shapeCap = 1024

// request decodes a task's wrapper request, sharing the star and filter
// slices of every earlier task with the same shape against the same
// source; only the seeds are decoded afresh.
func (w *Worker) request(sourceID string, wr wireRequest) (*wrapper.Request, error) {
	key, err := json.Marshal(struct {
		Source  string      `json:"source"`
		Stars   []wireStar  `json:"stars"`
		Filters []*wireExpr `json:"filters"`
	}{sourceID, wr.Stars, wr.Filters})
	if err != nil {
		return nil, err
	}
	w.shapeMu.Lock()
	shape := w.shapes[string(key)]
	if shape == nil {
		if shape, err = (wireRequest{Stars: wr.Stars, Filters: wr.Filters}).request(); err != nil {
			w.shapeMu.Unlock()
			return nil, err
		}
		if len(w.shapes) >= shapeCap {
			clear(w.shapes)
		}
		w.shapes[string(key)] = shape
	}
	w.shapeMu.Unlock()
	req := &wrapper.Request{Stars: shape.Stars, Filters: shape.Filters, Seed: wr.Seed.binding()}
	for _, s := range wr.Seeds {
		req.Seeds = append(req.Seeds, s.binding())
	}
	return req, nil
}

// Epoch returns the worker's session epoch.
func (w *Worker) Epoch() int64 { return w.epoch }

// Serve accepts coordinator links on lis until Shutdown closes it.
func (w *Worker) Serve(lis net.Listener) error {
	w.mu.Lock()
	w.lis = lis
	w.mu.Unlock()
	for {
		conn, err := lis.Accept()
		if err != nil {
			if w.ctx.Err() != nil || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		w.wg.Add(1)
		go func() {
			defer w.wg.Done()
			w.handle(conn)
		}()
	}
}

// Shutdown drains the worker: it stops accepting links, cancels in-flight
// fragments, waits for them to unwind until ctx expires, then force-
// closes the persistent connections (which never close on their own).
func (w *Worker) Shutdown(ctx context.Context) error {
	w.cancel()
	w.mu.Lock()
	if w.lis != nil {
		w.lis.Close()
	}
	w.mu.Unlock()
	drained := make(chan struct{})
	go func() {
		w.taskWG.Wait()
		close(drained)
	}()
	var expired error
	select {
	case <-drained:
	case <-ctx.Done():
		expired = ctx.Err()
	}
	w.mu.Lock()
	for wc := range w.conns {
		wc.conn.Close()
	}
	w.mu.Unlock()
	w.wg.Wait()
	return expired
}

// Info snapshots the worker's identity and shuffle counters: folded
// totals of closed connections plus the live links' codecs. RemapEntries
// is the live links' current remap-table sizes.
func (w *Worker) Info() WorkerInfo {
	info := WorkerInfo{
		Epoch:           w.epoch,
		Partition:       w.part,
		Of:              w.of,
		Scheme:          w.scheme,
		Active:          w.active.Load(),
		Queued:          w.queued.Load(),
		BatchesIn:       w.fBatchesIn.Load(),
		BatchesOut:      w.fBatchesOut.Load(),
		BytesIn:         w.fBytesIn.Load(),
		BytesOut:        w.fBytesOut.Load(),
		ShuffledBatches: w.fShufBatches.Load(),
		ShuffledBytes:   w.fShufBytes.Load(),
		DictDeltaBytes:  w.fDeltaBytes.Load(),
		Terms:           w.d.Len(),
	}
	w.mu.Lock()
	for wc := range w.conns {
		info.BatchesIn += wc.dec.Batches()
		info.BatchesOut += wc.enc.Batches()
		info.BytesIn += wc.dec.Bytes()
		info.BytesOut += wc.enc.Bytes()
		info.ShuffledBatches += wc.dec.ShuffledBatches()
		info.ShuffledBytes += wc.dec.ShuffledBytes()
		info.DictDeltaBytes += wc.dec.DeltaBytes() + wc.enc.DeltaBytes()
		info.RemapEntries += wc.dec.RemapEntries()
	}
	w.mu.Unlock()
	return info
}

func (w *Worker) logf(format string, args ...any) {
	if w.logger != nil {
		w.logger.Printf(format, args...)
	}
}

// workerConn is one coordinator link: a shared codec pair plus the task
// streams currently multiplexed on it.
type workerConn struct {
	conn net.Conn
	enc  *Encoder
	dec  *Decoder

	mu      sync.Mutex
	streams map[uint64]*workerStream
}

// workerStream is one task in flight on a link. Its context is created
// the moment the task frame parses — before admission — so a cancel
// frame aborts even a task still waiting in the queue. Join-input
// schemas register here synchronously in the demux loop, so a batch
// frame can never outrun its stream's layout.
type workerStream struct {
	id      uint64
	ctx     context.Context
	cancel  context.CancelFunc
	q       *frameQ
	schemas [3]*engine.Schema
}

func (wc *workerConn) lookupSchema(stream uint64, side byte) *engine.Schema {
	wc.mu.Lock()
	defer wc.mu.Unlock()
	if st := wc.streams[stream]; st != nil {
		return st.schemas[side]
	}
	return nil
}

func (wc *workerConn) stream(id uint64) *workerStream {
	wc.mu.Lock()
	defer wc.mu.Unlock()
	return wc.streams[id]
}

func workerInfoPtr(i WorkerInfo) *WorkerInfo { return &i }

// handle demultiplexes one coordinator link: the hello handshake, then a
// read loop routing frames to task streams, spawning a goroutine per
// task frame. It returns when the connection dies, after every task of
// the link unwinds.
func (w *Worker) handle(conn net.Conn) {
	wc := &workerConn{
		conn:    conn,
		enc:     NewEncoder(conn, w.d),
		dec:     NewDecoder(conn, w.d),
		streams: make(map[uint64]*workerStream),
	}
	wc.dec.SetLookup(wc.lookupSchema)
	w.mu.Lock()
	w.conns[wc] = struct{}{}
	w.mu.Unlock()

	var tasks sync.WaitGroup
	defer func() {
		conn.Close()
		wc.mu.Lock()
		for _, st := range wc.streams {
			st.cancel()
			st.q.close(errors.New("cluster: link closed"))
		}
		wc.mu.Unlock()
		tasks.Wait()
		w.mu.Lock()
		delete(w.conns, wc)
		w.mu.Unlock()
		w.fBatchesIn.Add(wc.dec.Batches())
		w.fBatchesOut.Add(wc.enc.Batches())
		w.fBytesIn.Add(wc.dec.Bytes())
		w.fBytesOut.Add(wc.enc.Bytes())
		w.fShufBatches.Add(wc.dec.ShuffledBatches())
		w.fShufBytes.Add(wc.dec.ShuffledBytes())
		w.fDeltaBytes.Add(wc.dec.DeltaBytes() + wc.enc.DeltaBytes())
	}()

	// The worker speaks first: a stream-0 hello carrying the session
	// epoch and partition identity, so links handshake in half a round
	// trip and restarts are detectable.
	if err := wc.enc.Hello(0, workerInfoPtr(w.Info())); err != nil {
		return
	}

	for {
		f, err := wc.dec.Next()
		if err != nil {
			return
		}
		switch f.Type {
		case frameTask:
			var h taskHeader
			if err := json.Unmarshal(f.Payload, &h); err != nil {
				wc.enc.Error(f.Stream, "bad task header: "+err.Error())
				continue
			}
			if h.Kind == "hello" {
				// Status probes skip admission: they must answer even when
				// the fragment queue is saturated.
				if err := wc.enc.Hello(f.Stream, workerInfoPtr(w.Info())); err != nil {
					w.logf("cluster worker: hello reply: %v", err)
				}
				continue
			}
			st := &workerStream{id: f.Stream, q: newFrameQ()}
			st.ctx, st.cancel = context.WithCancel(w.ctx)
			if h.Join != nil {
				st.schemas[SideLeft] = engine.NewSchema(h.Join.Left)
				st.schemas[SideRight] = engine.NewSchema(h.Join.Right)
			}
			wc.mu.Lock()
			wc.streams[st.id] = st
			wc.mu.Unlock()
			tasks.Add(1)
			w.taskWG.Add(1)
			go func(h taskHeader, st *workerStream) {
				defer tasks.Done()
				defer w.taskWG.Done()
				w.runTask(wc, st, &h)
				wc.mu.Lock()
				delete(wc.streams, st.id)
				wc.mu.Unlock()
				st.cancel()
				st.q.close(nil)
			}(h, st)
		case frameBatch, frameDone:
			if st := wc.stream(f.Stream); st != nil {
				st.q.push(f)
			}
		case frameCancel, frameError:
			// The coordinator abandoned the task: abort it even while it
			// still queues for admission.
			if st := wc.stream(f.Stream); st != nil {
				st.cancel()
				st.q.close(context.Canceled)
			}
		default:
			// Unknown or late frames for released streams drop; their
			// dictionary deltas already interned inside the decoder.
		}
	}
}

// runTask admits and executes one task stream, reporting failures as an
// error frame on the stream.
func (w *Worker) runTask(wc *workerConn, st *workerStream, h *taskHeader) {
	// Admission: a worker executes at most MaxConcurrent fragments; the
	// rest wait here (the queue-depth gauge readers see via Info).
	w.queued.Add(1)
	select {
	case w.sem <- struct{}{}:
		w.queued.Add(-1)
	case <-st.ctx.Done():
		w.queued.Add(-1)
		if w.ctx.Err() != nil {
			wc.enc.Error(st.id, "worker shutting down")
		}
		return
	}
	defer func() { <-w.sem }()
	w.active.Add(1)
	defer w.active.Add(-1)

	var runErr error
	switch {
	case h.Kind == "scan" && h.Scan != nil:
		runErr = w.runScan(st, wc.enc, h.Scan)
	case h.Kind == "join" && h.Join != nil:
		runErr = w.runJoin(st, wc.enc, h.Join)
	case h.Kind == "frag" && h.Frag != nil:
		runErr = w.runFrag(st, wc.enc, h.Frag)
	default:
		runErr = fmt.Errorf("unknown task kind %q", h.Kind)
	}
	if runErr != nil && st.ctx.Err() == nil {
		w.logf("cluster worker: task %s: %v", h.Kind, runErr)
		wc.enc.Error(st.id, runErr.Error())
	}
}

// sendOut streams s's batches to the coordinator as the stream's SideOut.
func (w *Worker) sendOut(st *workerStream, enc *Encoder, s *engine.CStream) error {
	for b := range s.Batches() {
		if err := enc.Batch(st.id, SideOut, b); err != nil {
			st.cancel()
			for range s.Batches() {
			}
			return err
		}
	}
	return nil
}

// runScan executes one wrapper request against this worker's partition
// and streams the result batches back.
func (w *Worker) runScan(st *workerStream, enc *Encoder, sc *scanTask) error {
	req, err := w.request(sc.SourceID, sc.Req)
	if err != nil {
		return err
	}
	opts := sc.Env.options()
	x := w.exec.NewExecution(sc.Env.Scale, sc.Env.Seed)
	schema := engine.NewSchema(sc.Schema)
	s, err := x.RunService(st.ctx, sc.SourceID, req, schema, opts)
	if err != nil {
		return err
	}
	if err := w.sendOut(st, enc, s); err != nil {
		return err
	}
	if err := x.Err(); err != nil {
		return err
	}
	return enc.Done(st.id, SideOut)
}

// runFrag executes a co-partitioned plan subtree locally and streams only
// its results back — the shuffle-elision path.
func (w *Worker) runFrag(st *workerStream, enc *Encoder, ft *fragTask) error {
	if ft.Root == nil {
		return corrupt("fragment without a root")
	}
	opts := ft.Env.options()
	x := w.exec.NewExecution(ft.Env.Scale, ft.Env.Seed)
	s, err := w.buildFrag(st.ctx, x, ft.Root, opts)
	if err != nil {
		return err
	}
	if err := w.sendOut(st, enc, s); err != nil {
		return err
	}
	if err := x.Err(); err != nil {
		return err
	}
	return enc.Done(st.id, SideOut)
}

// buildFrag instantiates the serializable fragment tree as local columnar
// operators over this worker's partition.
func (w *Worker) buildFrag(ctx context.Context, x *core.Execution, f *wireFrag, opts core.Options) (*engine.CStream, error) {
	schema := engine.NewSchema(f.Vars)
	switch f.Kind {
	case "scan":
		if f.Req == nil {
			return nil, corrupt("fragment scan without request")
		}
		req, err := w.request(f.SourceID, *f.Req)
		if err != nil {
			return nil, err
		}
		return x.RunService(ctx, f.SourceID, req, schema, opts)
	case "join":
		if f.L == nil || f.R == nil {
			return nil, corrupt("fragment join missing a side")
		}
		l, err := w.buildFrag(ctx, x, f.L, opts)
		if err != nil {
			return nil, err
		}
		r, err := w.buildFrag(ctx, x, f.R, opts)
		if err != nil {
			return nil, err
		}
		return engine.CSymmetricHashJoin(ctx, l, r, f.JoinVars, schema,
			opts.EffectiveProbeParallelism(), opts.EffectiveBatchSize()), nil
	case "filter":
		if len(f.Children) != 1 {
			return nil, corrupt("fragment filter needs exactly one child")
		}
		in, err := w.buildFrag(ctx, x, f.Children[0], opts)
		if err != nil {
			return nil, err
		}
		var filters []sparql.Expr
		for _, we := range f.Filters {
			e, err := we.expr()
			if err != nil {
				return nil, err
			}
			filters = append(filters, e)
		}
		return engine.CFilter(ctx, in, filters, w.d, opts.EffectiveBatchSize()), nil
	case "union":
		if len(f.Children) == 0 {
			return nil, corrupt("fragment union without children")
		}
		ins := make([]*engine.CStream, len(f.Children))
		for i, ch := range f.Children {
			s, err := w.buildFrag(ctx, x, ch, opts)
			if err != nil {
				return nil, err
			}
			ins[i] = s
		}
		return engine.CUnion(ctx, schema, opts.EffectiveBatchSize(), ins...), nil
	default:
		return nil, corrupt("unknown fragment kind %q", f.Kind)
	}
}

// runJoin symmetric-hash-joins the left/right batches the coordinator
// shuffles in, streaming joined batches out as both sides build.
func (w *Worker) runJoin(st *workerStream, enc *Encoder, jt *joinTask) error {
	leftSchema := st.schemas[SideLeft]
	rightSchema := st.schemas[SideRight]
	outSchema := engine.NewSchema(jt.Out)

	opts := jt.Env.options()
	left := engine.NewCStream(leftSchema, 4)
	right := engine.NewCStream(rightSchema, 4)
	out := engine.CSymmetricHashJoin(st.ctx, left, right, jt.JoinVars, outSchema,
		opts.EffectiveProbeParallelism(), opts.EffectiveBatchSize())

	writeErr := make(chan error, 1)
	go func() {
		for b := range out.Batches() {
			if err := enc.Batch(st.id, SideOut, b); err != nil {
				st.cancel()
				for range out.Batches() {
				}
				writeErr <- err
				return
			}
		}
		writeErr <- enc.Done(st.id, SideOut)
	}()

	doneL, doneR := false, false
	closeBoth := func() {
		if !doneL {
			doneL = true
			left.Close()
		}
		if !doneR {
			doneR = true
			right.Close()
		}
	}
	for !(doneL && doneR) {
		f, qerr, ok := st.q.pop()
		if !ok {
			// The stream's queue closed under the task: the link died, the
			// coordinator canceled, or the worker is shutting down.
			st.cancel()
			closeBoth()
			<-writeErr
			if st.ctx.Err() != nil {
				return nil
			}
			if qerr == nil {
				qerr = corrupt("join input ended early")
			}
			return qerr
		}
		switch f.Type {
		case frameBatch:
			var target *engine.CStream
			switch {
			case f.Side == SideLeft && !doneL:
				target = left
			case f.Side == SideRight && !doneR:
				target = right
			default:
				st.cancel()
				closeBoth()
				<-writeErr
				return corrupt("join batch for side %d", f.Side)
			}
			if f.Batch == nil {
				st.cancel()
				closeBoth()
				<-writeErr
				return corrupt("join batch without a registered schema")
			}
			if !target.SendBatch(st.ctx, f.Batch) {
				closeBoth()
				<-writeErr
				return st.ctx.Err()
			}
		case frameDone:
			switch {
			case f.Side == SideLeft && !doneL:
				doneL = true
				left.Close()
			case f.Side == SideRight && !doneR:
				doneR = true
				right.Close()
			}
		default:
			st.cancel()
			closeBoth()
			<-writeErr
			return corrupt("unexpected frame type 0x%02x in join task", f.Type)
		}
	}
	return <-writeErr
}
