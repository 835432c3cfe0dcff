package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"uwm/internal/cluster"
	"uwm/internal/engine"
	"uwm/internal/engine/httpapi"
	"uwm/internal/metrics"
	"uwm/internal/noise"
)

// servePrefixReqs is the serve workload's warm-up prefix: accuracy, the
// digest and the replay that gives sim_cycles_per_op cover exactly
// these requests.
const servePrefixReqs = 1024

// serveStack is the serve workload's system under test: two backends
// built like uwm-serve (one worker each) behind a gateway built like
// uwm-gateway, all in process on loopback listeners.
type serveStack struct {
	backends []*server
	https    []*http.Server
	serveErr []chan error
	gw       *cluster.Gateway
	gwReg    *metrics.Registry
	url      string
	// engineSetup is the time the two engines took to build.
	engineSetup time.Duration
}

// listen serves h on an ephemeral loopback port.
func (s *serveStack) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	s.https = append(s.https, srv)
	s.serveErr = append(s.serveErr, done)
	return ln.Addr().String(), nil
}

// startServe builds the stack and returns once the gateway's probes
// report every backend up. With a tracer, the backend handlers and the
// gateway are wrapped in span recorders keyed by X-Request-Id.
func startServe(tr *tracer) (*serveStack, error) {
	s := &serveStack{}
	var urls []string
	for b := 0; b < 2; b++ {
		start := time.Now()
		srv, err := newServer(uwmServe, serveBackendWorkers)
		s.engineSetup += time.Since(start)
		if err != nil {
			s.close()
			return nil, err
		}
		s.backends = append(s.backends, srv)
		var h http.Handler = httpapi.New(srv.eng)
		if tr != nil {
			h = spanHandler(tr, "httpapi.handler", "b"+strconv.Itoa(b), h)
		}
		addr, err := s.listen(h)
		if err != nil {
			s.close()
			return nil, err
		}
		urls = append(urls, addr)
	}
	s.gwReg = metrics.NewRegistry()
	gw, err := cluster.New(cluster.Config{
		Backends:      urls,
		ProbeInterval: uwmGateway.ProbeInterval,
		CacheEntries:  uwmGateway.CacheEntries,
		CacheBytes:    uwmGateway.CacheBytes,
		CacheTTL:      uwmGateway.CacheTTL,
		Hedge:         uwmGateway.Hedge,
		HedgeBudget:   uwmGateway.HedgeBudget,
		Metrics:       s.gwReg,
	})
	if err != nil {
		s.close()
		return nil, err
	}
	var h http.Handler = gw
	if tr != nil {
		h = spanHandler(tr, "gateway.ServeHTTP", "", h)
	}
	addr, err := s.listen(h)
	if err != nil {
		gw.Close()
		s.close()
		return nil, err
	}
	s.gw = gw // from here on the last listener is the gateway's
	s.url = "http://" + addr
	deadline := time.Now().Add(10 * time.Second)
	for !s.allUp() {
		if time.Now().After(deadline) {
			s.close()
			return nil, errors.New("gateway probes did not report both backends up within 10s")
		}
		time.Sleep(200 * time.Microsecond)
	}
	return s, nil
}

func (s *serveStack) allUp() bool {
	for _, b := range s.gw.Status().Backends {
		if b.State != cluster.StateUp {
			return false
		}
	}
	return true
}

// close drains the stack front to back: gateway listener, gateway,
// backend listeners, engines.
func (s *serveStack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var errs []error
	shutdown := func(i int) {
		if err := s.https[i].Shutdown(ctx); err != nil {
			errs = append(errs, err)
		}
		if err := <-s.serveErr[i]; err != nil && !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	if s.gw != nil {
		shutdown(len(s.https) - 1)
		s.gw.Close()
		s.https = s.https[:len(s.https)-1]
	}
	for i := range s.https {
		shutdown(i)
	}
	for _, b := range s.backends {
		if err := b.close(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// spanHandler records one span per request around h.
func spanHandler(tr *tracer, name, attr string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		h.ServeHTTP(w, r)
		tr.recordAttr(name, r.Header.Get("X-Request-Id"), attr, t0, time.Now())
	})
}

// serveResult is what the client kept of one response.
type serveResult struct {
	outputs [][]int
	cache   string
	backend string
	snap    engine.Snapshot
}

// checkServe validates one response against its request: HTTP status,
// a done snapshot, and a result whose outputs have the right shape,
// whose golden matches the benchmark's own truth tables (gate jobs) or
// CircuitSpec.Eval (circuit jobs), and whose tally matches. It returns
// the outputs and the output bits matching the truth.
func checkServe(req serveReq, status int, body []byte) (engine.Snapshot, [][]int, int, int, error) {
	var snap engine.Snapshot
	if status != http.StatusOK {
		return snap, nil, 0, 0, fmt.Errorf("HTTP %d: %s", status, bytes.TrimSpace(body))
	}
	if err := json.Unmarshal(body, &snap); err != nil {
		return snap, nil, 0, 0, fmt.Errorf("decoding snapshot: %w", err)
	}
	if snap.Status != engine.StatusDone || snap.Result == nil {
		return snap, nil, 0, 0, fmt.Errorf("job %s: status %s: %s", snap.ID, snap.Status, snap.Error)
	}
	if req.spec != nil {
		outs, correct, total, err := checkCircuit(req.spec, req.inputs, snap.Result.Value)
		return snap, outs, correct, total, err
	}
	var res engine.GateResult
	if err := json.Unmarshal(snap.Result.Value, &res); err != nil {
		return snap, nil, 0, 0, fmt.Errorf("decoding gate result: %w", err)
	}
	if res.Gate != req.gate || len(res.Outputs) != len(req.inputs) || len(res.Golden) != len(req.inputs) {
		return snap, nil, 0, 0, fmt.Errorf("gate result for %s has %d outputs, %d goldens, want %s with %d",
			res.Gate, len(res.Outputs), len(res.Golden), req.gate, len(req.inputs))
	}
	correct := 0
	for v, in := range req.inputs {
		want, err := gateTruth(req.gate, in)
		if err != nil {
			return snap, nil, 0, 0, err
		}
		if len(res.Outputs[v]) != 1 || res.Outputs[v][0]&^1 != 0 {
			return snap, nil, 0, 0, fmt.Errorf("activation %d output %v is not one bit", v, res.Outputs[v])
		}
		if len(res.Golden[v]) != 1 || res.Golden[v][0] != want {
			return snap, nil, 0, 0, fmt.Errorf("activation %d: job golden %v, truth table says %d", v, res.Golden[v], want)
		}
		if res.Outputs[v][0] == want {
			correct++
		}
	}
	if res.Correct != correct || res.Total != len(req.inputs) {
		return snap, nil, 0, 0, fmt.Errorf("job tallies %d/%d correct, recomputed %d/%d", res.Correct, res.Total, correct, len(req.inputs))
	}
	return snap, res.Outputs, correct, len(req.inputs), nil
}

// replayGate re-runs one gate job on the reference rig as the engine's
// gate handler runs its first attempt.
func (r *refRig) replayGate(gate string, inputs [][]int, jobSeed uint64) ([][]int, int64, float64, error) {
	r.m.ReseedNoise(noise.SubSeed(jobSeed, 0))
	c0, a0 := r.m.CPU().TSC(), r.activations()
	outs := make([][]int, len(inputs))
	for v, in := range inputs {
		if g := r.sk.Gate(gate); g != nil {
			bit, err := g.Run(in...)
			if err != nil {
				return nil, 0, 0, err
			}
			outs[v] = []int{bit}
		} else if g, ok := r.tsx[gate]; ok {
			out, err := g.Run(in...)
			if err != nil {
				return nil, 0, 0, err
			}
			outs[v] = out
		} else {
			return nil, 0, 0, fmt.Errorf("unknown gate %q", gate)
		}
	}
	return outs, r.m.CPU().TSC() - c0, r.activations() - a0, nil
}

// gatewayCounters are the gateway registry series the cluster layer
// metrics difference across the timed window.
var gatewayCounters = []string{"uwm_gateway_requests_total", "uwm_gateway_cache_hits_total"}

// runServe sends seeded sync submissions through the gateway from two
// closed-loop clients over two keep-alive connections.
func runServe(seed uint64, window time.Duration, tr *tracer) (*phase, error) {
	p := &phase{lat: newLatencies(seed)}
	var stack *serveStack
	var engineSetupMS []float64
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		s, err := startServe(tr)
		if err != nil {
			return nil, fmt.Errorf("serve set-up: %w", err)
		}
		p.setups = append(p.setups, time.Since(start))
		engineSetupMS = append(engineSetupMS, float64(s.engineSetup)/1e6)
		if stack != nil {
			if err := stack.close(); err != nil {
				return nil, err
			}
		}
		stack = s
		runtime.GC() // the discarded builds' garbage, outside any measurement
	}
	closed := false
	defer func() {
		if !closed {
			stack.close()
		}
	}()

	transport := &http.Transport{MaxIdleConnsPerHost: outstanding, MaxConnsPerHost: outstanding}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport, Timeout: 2 * uwmServe.Timeout}

	stream, err := newServeStream(seed)
	if err != nil {
		return nil, err
	}
	request := indexed(stream.next)
	var (
		mu        sync.Mutex
		bodies    = make(map[int][]byte)   // replies of the last requests, by index
		waiting   = make(map[int][][]byte) // cache hits whose original has not been recorded yet
		prefix    [servePrefixReqs]serveResult
		prefixReq [servePrefixReqs]serveReq
		results   = make(map[string]serveResult) // traced window, by request id
		inPhase   bool
	)
	// send posts one request and reads the whole reply, so the
	// keep-alive connection is reused.
	send := func(id string, body []byte) (*http.Response, []byte, error) {
		hreq, err := http.NewRequest(http.MethodPost, stack.url+"/v1/jobs?wait=1", bytes.NewReader(body))
		if err != nil {
			return nil, nil, err
		}
		hreq.Header.Set("X-Request-Id", id)
		hreq.Header.Set("Content-Type", "application/json")
		resp, err := client.Do(hreq)
		if err != nil {
			return nil, nil, err
		}
		defer resp.Body.Close()
		reply, err := io.ReadAll(resp.Body)
		return resp, reply, err
	}
	do := func(i int) {
		id := "s" + strconv.Itoa(i)
		var (
			resp           *http.Response
			body           []byte
			snap           engine.Snapshot
			outs           [][]int
			correct, total int
			t0, t1         time.Time
		)
		req, err := request(i)
		if err == nil {
			t0 = time.Now()
			resp, body, err = send(id, req.body)
			t1 = time.Now()
		}
		if err == nil {
			snap, outs, correct, total, err = checkServe(req, resp.StatusCode, body)
		}
		mu.Lock()
		defer mu.Unlock()
		p.attempted++
		var cache string
		if err == nil {
			// A repeat served from the cache must equal the reply to the
			// request it repeats. That reply can reach its own client
			// after the hit reaches this one, so either side may arrive
			// first.
			cache = resp.Header.Get("X-Cache")
			for _, hit := range waiting[i] {
				if !bytes.Equal(hit, body) {
					err = fmt.Errorf("a cache hit for a repeat of this request is not byte-identical to its reply")
				}
			}
			delete(waiting, i)
			if req.repeat >= 0 && cache == "hit" {
				if orig, ok := bodies[req.repeat]; !ok {
					waiting[req.repeat] = append(waiting[req.repeat], body)
				} else if !bytes.Equal(orig, body) {
					err = fmt.Errorf("cache hit for a repeat of request %d is not byte-identical to its reply", req.repeat)
				}
			}
		}
		if err != nil {
			p.fail("request %d (%s): %v", i, id, err)
			return
		}
		bodies[i] = body
		delete(bodies, i-64)
		res := serveResult{outputs: outs, cache: cache, backend: resp.Header.Get("X-UWM-Backend"), snap: snap}
		if i < servePrefixReqs {
			prefix[i], prefixReq[i] = res, req
			p.correctBits += int64(correct)
			p.totalBits += int64(total)
			return
		}
		if !inPhase {
			return
		}
		p.lat.add(t1.Sub(t0))
		p.ops++
		if req.spec != nil {
			p.gateOps += int64(len(req.inputs) * len(req.spec.Gates))
		} else {
			p.gateOps += int64(len(req.inputs))
		}
		if tr != nil {
			tr.record("client.request", id, t0, t1)
			results[id] = res
		}
	}

	next := closedLoop(0, func(i int) bool { return i >= servePrefixReqs }, do)
	backendRegs := make([]*metrics.Registry, len(stack.backends))
	for i, b := range stack.backends {
		backendRegs[i] = b.reg
	}
	gwRegs := []*metrics.Registry{stack.gwReg}
	engBefore, gwBefore := readEngineCounters(backendRegs), readCounters(gwRegs, gatewayCounters)
	hedgesBefore := series(gwRegs, "uwm_gateway_hedges_total", "outcome=launched")
	runtime.GC()
	p.rtBefore = readRuntime()
	cpu0 := cpuTime()
	start := time.Now()
	inPhase = true
	deadline := start.Add(window)
	closedLoop(next, func(int) bool { return !time.Now().Before(deadline) }, do)
	p.elapsed = time.Since(start)
	p.cpu = cpuTime() - cpu0
	p.rtAfter = readRuntime()
	engAfter, gwAfter := readEngineCounters(backendRegs), readCounters(gwRegs, gatewayCounters)
	hedges := series(gwRegs, "uwm_gateway_hedges_total", "outcome=launched") - hedgesBefore
	// Closing waits for in-flight handlers (a hedge's losing backend may
	// still be running), so every span is in before they are joined.
	closed = true
	if err := stack.close(); err != nil {
		return nil, fmt.Errorf("serve shutdown: %w", err)
	}

	// Replay the prefix's fresh requests serially on a reference rig.
	setupStart := time.Now()
	ref, err := newRefRig()
	if err != nil {
		return nil, fmt.Errorf("reference rig: %w", err)
	}
	refSetup := time.Since(setupStart)
	dg := newDigester()
	for i := range prefix {
		dg.add(i, prefix[i].outputs...)
		req := prefixReq[i]
		if prefix[i].outputs == nil || req.repeat >= 0 {
			continue
		}
		var outs [][]int
		var cycles int64
		var acts float64
		if req.spec != nil {
			outs, cycles, acts, err = ref.replayCircuit(req.spec, req.inputs, true, req.seed)
		} else {
			outs, cycles, acts, err = ref.replayGate(req.gate, req.inputs, req.seed)
		}
		if err != nil {
			return nil, fmt.Errorf("replaying request %d: %w", i, err)
		}
		p.simCycles += cycles
		p.simActs += int64(acts)
		if !equalOutputs(outs, prefix[i].outputs) {
			p.fail("request %d: served outputs differ from the serial replay on a clone rig", i)
		}
	}
	p.digest = dg.sum()
	if tr == nil {
		return p, nil
	}

	l := map[string]float64{"core.setup_ms": float64(refSetup) / 1e6}
	var eng engineLayer
	var handlerMS, overheadMS, hopMS, hitMS []float64
	perBackend := make(map[string]int)
	misses := 0
	spans := make(map[string][]span)
	for _, s := range tr.spans {
		if s.Req != "" {
			spans[s.Req] = append(spans[s.Req], s)
		}
	}
	for id, res := range results {
		var gw, handler *span
		for k := range spans[id] {
			s := &spans[id][k]
			switch {
			case s.Name == "gateway.ServeHTTP":
				gw = s
			case s.Name == "httpapi.handler" && s.Attr == "b"+res.backend:
				handler = s
			}
		}
		if res.cache == "hit" || res.cache == "collapsed" {
			// Served by the gateway without a backend of its own.
			if res.cache == "hit" && gw != nil {
				hitMS = append(hitMS, float64(gw.dur())/1e6)
			}
			continue
		}
		eng.observe(res.snap)
		if q, r, ok := snapshotTimes(res.snap); ok {
			tr.record("engine.queue", id, res.snap.Submitted, res.snap.Submitted.Add(q))
			tr.record("engine.run", id, *res.snap.Started, res.snap.Started.Add(r))
		}
		if res.backend != "" {
			misses++
			perBackend[res.backend]++
		}
		if handler == nil {
			continue
		}
		handlerMS = append(handlerMS, float64(handler.dur())/1e6)
		if res.snap.Finished != nil {
			overheadMS = append(overheadMS, float64(handler.dur()-res.snap.Finished.Sub(res.snap.Submitted).Nanoseconds())/1e6)
		}
		if gw != nil {
			hopMS = append(hopMS, float64(gw.dur()-handler.dur())/1e6)
		}
	}
	eng.fill(l, engBefore, engAfter, p.ops, median(engineSetupMS))
	l["httpapi.handler_ms.p50"] = quantile(handlerMS, 0.5)
	l["httpapi.handler_ms.p90"] = quantile(handlerMS, 0.9)
	l["httpapi.overhead_ms.p50"] = quantile(overheadMS, 0.5)
	l["cluster.hop_ms.p50"] = quantile(hopMS, 0.5)
	l["cluster.hop_ms.p90"] = quantile(hopMS, 0.9)
	reqs := gwAfter["uwm_gateway_requests_total"] - gwBefore["uwm_gateway_requests_total"]
	l["cluster.cache_hit_ratio"] = ratio(gwAfter["uwm_gateway_cache_hits_total"]-gwBefore["uwm_gateway_cache_hits_total"], reqs)
	l["cluster.cache_hit_ms.p50"] = quantile(hitMS, 0.5)
	l["cluster.hedges_per_request"] = ratio(hedges, reqs)
	top := 0
	for _, n := range perBackend {
		top = max(top, n)
	}
	l["cluster.max_backend_share"] = ratio(float64(top), float64(misses))
	tr.link(map[string]string{
		"gateway.ServeHTTP": "client.request",
		"httpapi.handler":   "gateway.ServeHTTP",
		"engine.queue":      "httpapi.handler",
		"engine.run":        "httpapi.handler",
	})
	p.layers = l
	return p, nil
}
