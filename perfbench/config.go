package main

import (
	"context"
	"fmt"
	"time"

	"uwm/internal/core"
	"uwm/internal/engine"
	"uwm/internal/evlog"
	"uwm/internal/flightrec"
	"uwm/internal/metrics"
	"uwm/internal/skelly"
	"uwm/internal/slo"
)

// serveConfig mirrors the flag defaults of cmd/uwm-serve that shape an
// engine. The benchmark builds its engines from uwmServe exactly as
// uwm-serve's main does; TestConfigMirrorsBinaries fails when a
// binary's -help output stops matching, so a changed default cannot
// drift away from what the benchmark measures.
type serveConfig struct {
	Workers, Queue           int
	Seed                     uint64
	Train, Attempts, Vote    int
	Timeout                  time.Duration
	Flight                   bool
	FlightKeep, FlightErrors int
	FlightHeadRate           float64
	FlightEvents             int
	SLO                      bool
}

var uwmServe = serveConfig{
	Workers: 2, Queue: 64, Seed: 2021, Train: 4, Attempts: 1, Vote: 1,
	Timeout: 60 * time.Second,
	Flight:  true, FlightKeep: 64, FlightErrors: 16, FlightHeadRate: 1, FlightEvents: 4096,
	SLO: true,
}

// serveBackendWorkers is the serve workload's one departure from
// uwm-serve's defaults: each of its two backends runs one worker, so
// the two backends together have the two workers of a default
// uwm-serve and the machine's two CPUs are not oversubscribed.
const serveBackendWorkers = 1

// gatewayConfig mirrors the flag defaults of cmd/uwm-gateway.
type gatewayConfig struct {
	ProbeInterval            time.Duration
	CacheEntries, CacheBytes int
	CacheTTL                 time.Duration
	Hedge                    bool
	HedgeBudget              float64
}

var uwmGateway = gatewayConfig{
	ProbeInterval: time.Second, CacheEntries: 1024, CacheBytes: 64 << 20,
	CacheTTL: 10 * time.Minute, Hedge: true, HedgeBudget: 0.10,
}

// server is one engine wired the way uwm-serve wires it: registry,
// flight recorder, event log and SLO engine.
type server struct {
	eng *engine.Engine
	slo *slo.Engine
	reg *metrics.Registry
}

func newServer(c serveConfig, workers int) (*server, error) {
	reg := metrics.NewRegistry()
	var rec *flightrec.Recorder
	if c.Flight {
		rec = flightrec.New(flightrec.Config{
			MaxKept:           c.FlightKeep,
			ErrorRing:         c.FlightErrors,
			HeadRate:          c.FlightHeadRate,
			MaxEventsPerTrace: c.FlightEvents,
			Metrics:           reg,
		})
	}
	log := evlog.New(evlog.Config{Metrics: reg})
	var sloEng *slo.Engine
	if c.SLO {
		cfg := slo.Config{SLOs: slo.DefaultSLOs(), Log: log, Metrics: reg}
		if rec != nil {
			cfg.Pinner = rec
		}
		var err error
		if sloEng, err = slo.New(cfg); err != nil {
			return nil, fmt.Errorf("slo: %w", err)
		}
	}
	eng, err := engine.New(engine.Config{
		Workers:         workers,
		QueueDepth:      c.Queue,
		Seed:            c.Seed,
		TrainIterations: c.Train,
		Retry:           engine.RetryPolicy{Attempts: c.Attempts, Vote: c.Vote},
		DefaultTimeout:  c.Timeout,
		Metrics:         reg,
		FlightRec:       rec,
		SLO:             sloEng,
		Log:             log,
	})
	if err != nil {
		sloEng.Close()
		return nil, err
	}
	return &server{eng: eng, slo: sloEng, reg: reg}, nil
}

func (s *server) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.eng.Close(ctx)
	s.slo.Close()
	return err
}

// refRig is a clone of one engine worker's rig, built in the engine's
// order from the engine's settings, on which the benchmark replays a
// run's warm-up prefix: serially, with the job seeds the engine used.
// The replay gives virtual cycles per activation and an independent
// check of the engine's outputs, and the circuit workload times the
// circopt passes on it directly.
type refRig struct {
	m   *core.Machine
	sk  *skelly.Skelly
	tsx map[string]*core.TSXGate
	reg *metrics.Registry
}

// engineSkelly is the engine's default gate-library redundancy.
var engineSkelly = skelly.Config{S: 3, K: 1, N: 1, Verify: true}

func newRefRig() (*refRig, error) {
	reg := metrics.NewRegistry()
	m, err := core.NewMachine(core.Options{
		Seed:            uwmServe.Seed,
		Noise:           engine.DefaultNoise(),
		TrainIterations: uwmServe.Train,
		Metrics:         reg,
	})
	if err != nil {
		return nil, err
	}
	sk, err := skelly.New(m, engineSkelly)
	if err != nil {
		return nil, err
	}
	r := &refRig{m: m, sk: sk, tsx: make(map[string]*core.TSXGate), reg: reg}
	for _, build := range []func(*core.Machine) (*core.TSXGate, error){
		core.NewTSXAnd, core.NewTSXOr, core.NewTSXXor, core.NewTSXAssign,
	} {
		g, err := build(m)
		if err != nil {
			return nil, err
		}
		r.tsx[g.Name()] = g
	}
	// The covert register is built last by the engine too; it places no
	// gate but claims memory, so the clone's layout matches.
	if _, err := core.NewDCWR(m); err != nil {
		return nil, err
	}
	return r, nil
}

// activations is the rig's gate activation count so far.
func (r *refRig) activations() float64 {
	return series([]*metrics.Registry{r.reg}, core.MetricGateFires)
}
