package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// clients is the closed-loop caller count: each caller waits for its
// reply before sending the next query, over one keep-alive connection.
const clients = 2

// sample is one completed HTTP request as the client saw it.
type sample struct {
	key     string
	latency time.Duration
	// ttfa is the time until the first binding object was on the wire;
	// hasTTFA is false for an empty result.
	ttfa     time.Duration
	hasTTFA  bool
	answers  int
	messages int
	bytes    int
	// done reports completion before the end of the timed region.
	done bool
}

// loadStats aggregates one closed-loop run.
type loadStats struct {
	samples   []sample
	attempted int
	// failed counts transport errors, 503 refusals, timeouts, non-200
	// answers and in-band execution errors; wrong answers are not failures
	// but make the run incorrect.
	failed int
	wrong  []string
	// firsts holds the full body of the first response for each answer
	// key, checked against the oracle's multiset after the run.
	firsts map[string][]byte
}

// bindingsMarker is the first binding object opening in a
// sparql-results+json stream.
var bindingsMarker = []byte(`"bindings":[{`)

// runLoad drives the server with the closed-loop callers for dur,
// checking every answer count against the oracle as it arrives.
func runLoad(url string, gen *generator, o *oracle, dur time.Duration) *loadStats {
	st := &loadStats{firsts: make(map[string][]byte)}
	var mu sync.Mutex
	deadline := time.Now().Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
			defer tr.CloseIdleConnections()
			hc := &http.Client{Transport: tr}
			buf := make([]byte, 32<<10)
			for time.Now().Before(deadline) {
				req := gen.next()
				mu.Lock()
				_, have := st.firsts[req.key]
				if !have {
					st.firsts[req.key] = nil // claimed: this request keeps its body
				}
				mu.Unlock()
				var keep *bytes.Buffer
				if !have {
					keep = new(bytes.Buffer)
				}
				s, err := doQuery(hc, url, req.text, buf, keep)
				s.key = req.key
				s.done = time.Now().Before(deadline)
				mu.Lock()
				st.attempted++
				if err != nil {
					st.failed++
					if keep != nil {
						delete(st.firsts, req.key) // let a later instance keep its body
					}
				} else {
					if want := o.counts[req.key]; s.answers != want {
						st.wrong = append(st.wrong, fmt.Sprintf("%s: %d answers, oracle %d", req.key, s.answers, want))
					}
					st.samples = append(st.samples, s)
					if keep != nil {
						st.firsts[req.key] = keep.Bytes()
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return st
}

// doQuery POSTs one query and reads the streamed answer to its end. When
// keep is non-nil the body is copied into it.
func doQuery(hc *http.Client, url, text string, buf []byte, keep *bytes.Buffer) (sample, error) {
	var s sample
	ctx, cancel := context.WithTimeout(context.Background(), 2*queryTimeout)
	defer cancel()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/sparql", strings.NewReader(text))
	if err != nil {
		return s, err
	}
	hreq.Header.Set("Content-Type", "application/sparql-query")
	start := time.Now()
	resp, err := hc.Do(hreq)
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return s, fmt.Errorf("status %s", resp.Status)
	}
	// The marker may straddle two reads: keep its length minus one of the
	// previous read's tail in front of the next one.
	var tail []byte
	for {
		n, rerr := resp.Body.Read(buf)
		if n > 0 {
			s.bytes += n
			if keep != nil {
				keep.Write(buf[:n])
			}
			if !s.hasTTFA {
				window := append(tail, buf[:n]...)
				if bytes.Contains(window, bindingsMarker) {
					s.ttfa, s.hasTTFA = time.Since(start), true
				} else if len(window) >= len(bindingsMarker) {
					tail = append(tail[:0], window[len(window)-len(bindingsMarker)+1:]...)
				} else {
					tail = window
				}
			}
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return s, rerr
		}
	}
	s.latency = time.Since(start)
	if e := resp.Trailer.Get("X-Ontario-Error"); e != "" {
		return s, errors.New(e)
	}
	if s.answers, err = strconv.Atoi(resp.Trailer.Get("X-Ontario-Answers")); err != nil {
		return s, fmt.Errorf("answer trailer: %v", err)
	}
	if s.messages, err = strconv.Atoi(resp.Trailer.Get("X-Ontario-Messages")); err != nil {
		return s, fmt.Errorf("message trailer: %v", err)
	}
	return s, nil
}
