package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"time"

	"ontario"
	"ontario/internal/bridge"
	"ontario/internal/cluster"
	"ontario/internal/lslod"
	"ontario/internal/server"
	"ontario/internal/wrapper"
)

// The serving configuration is ontario-server's default: aware plans,
// 4 executing queries, a wait queue of 16, 4 in-flight requests per
// source, a 128-plan LRU, the slow-query log and pprof on, and one access
// log line per request (formatted, then discarded). The coordinator's
// worker-status hook is left out: it only feeds /healthz and /metrics,
// which the timed region does not call.
const (
	maxConcurrent = 4
	queueDepth    = 16
	sourceLimit   = 4
	planCacheSize = 128
	slowLogSize   = 128
	queryTimeout  = 30 * time.Second
)

var resilience = ontario.Resilience{
	Timeout:          10 * time.Second,
	MaxRetries:       3,
	BreakerThreshold: 5,
	BreakerCooldown:  5 * time.Second,
}

// sut is one running system under test: the HTTP handler ontario-server
// serves, on a loopback port of this process, plus the cluster workers
// behind it for a clustered workload.
type sut struct {
	eng *ontario.Engine
	// opts are the server's default per-query options; the replay passes
	// the same ones.
	opts    []ontario.Option
	url     string
	hs      *http.Server
	served  chan error
	workers []*cluster.Worker
	client  *cluster.Client
}

// startSUT builds the lake (and partitions it over the workers), starts
// the server and returns once /healthz answers.
func startSUT(w workload) (s *sut, err error) {
	s = &sut{}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	var addrs []string
	for i := 0; i < w.workers; i++ {
		l, err := lslod.BuildLake(w.scale(), dataSeed)
		if err != nil {
			return nil, err
		}
		if err := cluster.PartitionLake(l.Lake, i, w.workers); err != nil {
			return nil, err
		}
		wk, err := cluster.NewWorker(l.Lake, cluster.WorkerConfig{Partition: i, Of: w.workers, MaxConcurrent: maxConcurrent})
		if err != nil {
			return nil, err
		}
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		s.workers = append(s.workers, wk)
		go wk.Serve(lis)
		addrs = append(addrs, lis.Addr().String())
	}

	l, err := lslod.BuildLake(w.scale(), dataSeed)
	if err != nil {
		return nil, err
	}
	s.eng = ontario.New(l.Lake, ontario.WithResilience(resilience), ontario.WithSourceLimit(sourceLimit))
	s.opts = []ontario.Option{
		ontario.WithNetwork(w.network),
		ontario.WithNetworkScale(w.netScale),
		ontario.WithSeed(netsimSeed),
		ontario.WithAwarePlan(),
	}
	if len(addrs) > 0 {
		s.client, err = cluster.NewClient(addrs, cluster.ClientConfig{Resilience: wrapper.ResilienceConfig{
			Timeout:          resilience.Timeout,
			MaxRetries:       resilience.MaxRetries,
			BreakerThreshold: resilience.BreakerThreshold,
			BreakerCooldown:  resilience.BreakerCooldown,
		}})
		if err != nil {
			return nil, err
		}
		opt, ok := bridge.ClusterOption(s.client).(ontario.Option)
		if !ok {
			return nil, errors.New("cluster option bridge returned an unexpected type")
		}
		s.opts = append(s.opts, opt)
	}
	srv := server.New(s.eng, server.Config{
		MaxConcurrent:    maxConcurrent,
		QueueDepth:       queueDepth,
		QueryTimeout:     queryTimeout,
		PlanCacheSize:    planCacheSize,
		SlowQueryLogSize: slowLogSize,
		EnablePprof:      true,
		Logger:           slog.New(slog.NewTextHandler(io.Discard, nil)),
		DefaultOptions:   s.opts,
	})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.url = "http://" + lis.Addr().String()
	s.hs = &http.Server{Handler: srv}
	s.served = make(chan error, 1)
	go func() { s.served <- s.hs.Serve(lis) }()
	return s, s.waitReady()
}

func (s *sut) waitReady() error {
	c := &http.Client{Timeout: time.Second}
	defer c.CloseIdleConnections()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := c.Get(s.url + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("/healthz: %s", resp.Status)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server not ready: %w", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// close stops the server and the workers and waits for them to exit.
func (s *sut) close() {
	if s.hs != nil {
		_ = s.hs.Close()
		<-s.served
	}
	if s.client != nil {
		s.client.Close()
	}
	for _, w := range s.workers {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = w.Shutdown(ctx)
		cancel()
	}
}

// clusterTotals sums the coordinator's per-worker link counters.
type clusterTotals struct {
	batches, bytes, deltaBytes, reconnects int64
}

func (s *sut) clusterTotals() clusterTotals {
	var t clusterTotals
	if s.client == nil {
		return t
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	for _, ws := range s.client.Probe(ctx) {
		t.batches += ws.BatchesIn + ws.BatchesOut
		t.bytes += ws.BytesIn + ws.BytesOut
		t.deltaBytes += ws.DictDeltaBytes
		t.reconnects += ws.Reconnects
	}
	return t
}
