package engine

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// newTestEngine builds an engine and tears it down with the test.
func newTestEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		e.Close(ctx)
	})
	return e
}

// waitJob blocks until the job is terminal and returns its snapshot.
func waitJob(t *testing.T, j *Job) Snapshot {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(120 * time.Second):
		t.Fatalf("job %s did not finish", j.ID())
	}
	return j.Snapshot()
}

func mustSubmit(t *testing.T, e *Engine, spec JobSpec) *Job {
	t.Helper()
	j, err := e.Submit(spec)
	if err != nil {
		t.Fatalf("Submit(%s): %v", spec.Type, err)
	}
	return j
}

func rawParams(t *testing.T, v any) json.RawMessage {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal params: %v", err)
	}
	return raw
}

func TestJobTypesRegistered(t *testing.T) {
	got := JobTypes()
	for _, want := range []string{JobTypeGate, JobTypeSHA1, JobTypeAPT, JobTypeCovert} {
		found := false
		for _, n := range got {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("JobTypes() = %v, missing %q", got, want)
		}
	}
}

func TestSubmitRejectsUnknownTypeAndBadParams(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1})
	if _, err := e.Submit(JobSpec{Type: "no-such-type"}); err == nil {
		t.Error("Submit accepted an unknown job type")
	}
	if _, err := e.Submit(JobSpec{Type: JobTypeGate, Params: json.RawMessage(`{"gate":`)}); err == nil {
		t.Error("Submit accepted invalid params JSON")
	}
}

func TestGateJobsBothFamilies(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 2})
	var jobs []*Job
	for _, gate := range []string{"AND", "OR", "NAND", "AND_AND_OR", "TSX_AND", "TSX_OR", "TSX_XOR", "TSX_ASSIGN"} {
		jobs = append(jobs, mustSubmit(t, e, JobSpec{
			Type:   JobTypeGate,
			Params: rawParams(t, GateParams{Gate: gate, Random: 8}),
		}))
	}
	for _, j := range jobs {
		snap := waitJob(t, j)
		if snap.Status != StatusDone {
			t.Fatalf("gate job %s: status %s, err %q", j.ID(), snap.Status, snap.Error)
		}
		var res GateResult
		if err := json.Unmarshal(snap.Result.Value, &res); err != nil {
			t.Fatalf("gate job %s: bad result: %v", j.ID(), err)
		}
		if res.Total != 8 {
			t.Errorf("gate %s: ran %d activations, want 8", res.Gate, res.Total)
		}
		// The paper's gates all sit well above coin-flip accuracy.
		if res.Accuracy < 0.5 {
			t.Errorf("gate %s: accuracy %.2f below 0.5", res.Gate, res.Accuracy)
		}
	}
}

func TestSHA1JobAgainstReference(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1})
	j := mustSubmit(t, e, JobSpec{
		Type:     JobTypeSHA1,
		Params:   rawParams(t, SHA1Params{Message: "abc"}),
		Attempts: 3,
		Vote:     2,
	})
	snap := waitJob(t, j)
	if snap.Status != StatusDone {
		t.Fatalf("sha1 job: status %s, err %q", snap.Status, snap.Error)
	}
	var res SHA1Result
	if err := json.Unmarshal(snap.Result.Value, &res); err != nil {
		t.Fatalf("sha1 job: bad result: %v", err)
	}
	// NIST vector for "abc".
	const want = "a9993e364706816aba3e25717850c26c9cd0d89d"
	if res.Reference != want {
		t.Errorf("reference digest = %s, want %s", res.Reference, want)
	}
	if len(res.Digest) != 40 {
		t.Errorf("weird digest %q is not 20 bytes of hex", res.Digest)
	}
	if res.GateOps == 0 {
		t.Error("sha1 job reported zero gate operations")
	}
}

func TestCovertJobRoundTrip(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1})
	j := mustSubmit(t, e, JobSpec{
		Type:   JobTypeCovert,
		Params: rawParams(t, CovertParams{Message: "covert round trip", Reps: 3}),
	})
	snap := waitJob(t, j)
	if snap.Status != StatusDone {
		t.Fatalf("covert job: status %s, err %q", snap.Status, snap.Error)
	}
	var res CovertResult
	if err := json.Unmarshal(snap.Result.Value, &res); err != nil {
		t.Fatalf("covert job: bad result: %v", err)
	}
	if res.Bits != 8*len("covert round trip") {
		t.Errorf("bits = %d", res.Bits)
	}
	if res.ErrorRate > 0.2 {
		t.Errorf("error rate %.3f above 0.2", res.ErrorRate)
	}
}

func TestAPTJobFires(t *testing.T) {
	if testing.Short() {
		t.Skip("apt trigger experiment is seconds-long")
	}
	e := newTestEngine(t, Config{Workers: 1})
	j := mustSubmit(t, e, JobSpec{Type: JobTypeAPT})
	snap := waitJob(t, j)
	if snap.Status != StatusDone {
		t.Fatalf("apt job: status %s, err %q", snap.Status, snap.Error)
	}
	var res APTResult
	if err := json.Unmarshal(snap.Result.Value, &res); err != nil {
		t.Fatalf("apt job: bad result: %v", err)
	}
	if res.Pings < 1 {
		t.Errorf("payload fired after %d pings", res.Pings)
	}
	if res.Payload != "reverse-shell" {
		t.Errorf("payload = %q", res.Payload)
	}
}

// determinismMix is the job stream the serial-vs-pooled test replays:
// both gate families, redundant voting, a covert transfer and a weird
// hash, all with engine-derived sub-seeds.
func determinismMix(t *testing.T) []JobSpec {
	t.Helper()
	specs := []JobSpec{
		{Type: JobTypeSHA1, Params: rawParams(t, SHA1Params{Message: "abc"}), Attempts: 2, Vote: 2},
		{Type: JobTypeCovert, Params: rawParams(t, CovertParams{Message: "determinism", Reps: 3})},
		{Type: JobTypeGate, Params: rawParams(t, GateParams{Gate: "TSX_XOR", Random: 6}), Attempts: 3, Vote: 2},
	}
	for _, gate := range []string{"AND", "NAND", "AND_AND_OR", "TSX_AND", "TSX_ASSIGN"} {
		specs = append(specs, JobSpec{
			Type:   JobTypeGate,
			Params: rawParams(t, GateParams{Gate: gate, Random: 6}),
		})
	}
	return specs
}

// runMix submits the mix in order and returns the terminal snapshots
// in submission order.
func runMix(t *testing.T, workers int, specs []JobSpec) []Snapshot {
	t.Helper()
	e := newTestEngine(t, Config{Workers: workers, QueueDepth: len(specs) + 1})
	jobs := make([]*Job, len(specs))
	for i, spec := range specs {
		jobs[i] = mustSubmit(t, e, spec)
	}
	snaps := make([]Snapshot, len(jobs))
	for i, j := range jobs {
		snaps[i] = waitJob(t, j)
	}
	return snaps
}

// TestSerialPooledDeterminism is the engine's reproducibility
// acceptance test: the same submission stream, run through a
// single-worker pool and a four-worker pool with the same root seed,
// must produce byte-identical per-job results — including the vote
// accounting, which proves every redundant attempt replayed too.
func TestSerialPooledDeterminism(t *testing.T) {
	specs := determinismMix(t)
	serial := runMix(t, 1, specs)
	pooled := runMix(t, 4, specs)
	for i := range serial {
		s, p := serial[i], pooled[i]
		if s.Status != p.Status {
			t.Errorf("job %d (%s): serial status %s, pooled %s", i, specs[i].Type, s.Status, p.Status)
			continue
		}
		if s.SubSeed != p.SubSeed {
			t.Errorf("job %d: sub-seed %d vs %d", i, s.SubSeed, p.SubSeed)
		}
		if s.Result == nil || p.Result == nil {
			t.Errorf("job %d (%s): missing result (serial %v, pooled %v), err %q / %q",
				i, specs[i].Type, s.Result != nil, p.Result != nil, s.Error, p.Error)
			continue
		}
		if string(s.Result.Value) != string(p.Result.Value) {
			t.Errorf("job %d (%s): serial result %s != pooled result %s",
				i, specs[i].Type, s.Result.Value, p.Result.Value)
		}
		if s.Result.Attempts != p.Result.Attempts || s.Result.Votes != p.Result.Votes || s.Result.Quorum != p.Result.Quorum {
			t.Errorf("job %d (%s): vote accounting diverged: serial %+v, pooled %+v",
				i, specs[i].Type, s.Result, p.Result)
		}
	}
}

// TestSeedOverrideReplaysJob checks that pinning JobSpec.Seed replays
// one job bit-for-bit regardless of where it lands in the stream.
func TestSeedOverrideReplaysJob(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1})
	spec := JobSpec{
		Type:   JobTypeGate,
		Params: rawParams(t, GateParams{Gate: "TSX_XOR", Random: 12}),
		Seed:   0xfeedface,
	}
	a := waitJob(t, mustSubmit(t, e, spec))
	// An interleaved job perturbs the machine's architectural history.
	waitJob(t, mustSubmit(t, e, JobSpec{Type: JobTypeGate, Params: rawParams(t, GateParams{Gate: "AND", Random: 4})}))
	b := waitJob(t, mustSubmit(t, e, spec))
	if a.Status != StatusDone || b.Status != StatusDone {
		t.Fatalf("statuses %s / %s", a.Status, b.Status)
	}
	if string(a.Result.Value) != string(b.Result.Value) {
		t.Errorf("same explicit seed produced different results:\n%s\n%s", a.Result.Value, b.Result.Value)
	}
}

// TestDeadlineStopsGateLoop submits a hash whose full run takes on the
// order of a second with a deadline three orders of magnitude shorter:
// the job must fail with the deadline error well before the full hash
// could have completed, and the worker must stay usable.
func TestDeadlineStopsGateLoop(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1})
	start := time.Now()
	j := mustSubmit(t, e, JobSpec{
		Type:    JobTypeSHA1,
		Params:  rawParams(t, SHA1Params{Message: strings.Repeat("x", 200)}),
		Timeout: 30 * time.Millisecond,
	})
	snap := waitJob(t, j)
	if snap.Status != StatusFailed {
		t.Fatalf("status = %s, want %s (err %q)", snap.Status, StatusFailed, snap.Error)
	}
	if !strings.Contains(snap.Error, context.DeadlineExceeded.Error()) {
		t.Errorf("error %q does not mention the deadline", snap.Error)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("deadline-exceeded job held the worker for %v", elapsed)
	}

	// The abandoned hash must not wedge or corrupt the worker.
	after := waitJob(t, mustSubmit(t, e, JobSpec{
		Type:   JobTypeGate,
		Params: rawParams(t, GateParams{Gate: "AND", Random: 4}),
	}))
	if after.Status != StatusDone {
		t.Errorf("follow-up job: status %s, err %q", after.Status, after.Error)
	}
}

// TestDeadlineNeverReturnsPartialVote: a deadline that cuts a vote
// short fails the job. The one attempt that finished must not stand
// in for the seeded vote of three.
func TestDeadlineNeverReturnsPartialVote(t *testing.T) {
	calls := 0
	Register("test-deadline-vote", func(ctx context.Context, _ *Env, _ json.RawMessage) (any, error) {
		calls++
		if calls == 1 {
			return "ok", nil
		}
		select {
		case <-time.After(10 * time.Second):
			return "late", nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	e := newTestEngine(t, Config{Workers: 1})
	snap := waitJob(t, mustSubmit(t, e, JobSpec{
		Type: "test-deadline-vote", Attempts: 3, Vote: 2, Timeout: 50 * time.Millisecond,
	}))
	if snap.Status != StatusFailed {
		t.Fatalf("status = %s, want %s (result %+v)", snap.Status, StatusFailed, snap.Result)
	}
	if snap.Result != nil {
		t.Errorf("truncated vote returned a result: %+v", snap.Result)
	}
	if !strings.Contains(snap.Error, context.DeadlineExceeded.Error()) {
		t.Errorf("error %q does not mention the deadline", snap.Error)
	}
}

// blockingHandler registers a job type that parks until released (or
// its context is canceled), for queue and drain tests.
func blockingHandler(t *testing.T, name string) (release func()) {
	t.Helper()
	ch := make(chan struct{})
	Register(name, func(ctx context.Context, _ *Env, _ json.RawMessage) (any, error) {
		select {
		case <-ch:
			return "released", nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	var once sync.Once
	return func() { once.Do(func() { close(ch) }) }
}

func TestQueueFullBackpressure(t *testing.T) {
	release := blockingHandler(t, "test-block-backpressure")
	defer release()
	e := newTestEngine(t, Config{Workers: 1, QueueDepth: 1})

	running := mustSubmit(t, e, JobSpec{Type: "test-block-backpressure"})
	// Wait for the worker to pick it up so the queue slot frees.
	deadline := time.Now().Add(10 * time.Second)
	for e.Stats().Inflight == 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never picked up the blocking job")
		}
		time.Sleep(time.Millisecond)
	}
	queued := mustSubmit(t, e, JobSpec{Type: "test-block-backpressure"})

	if _, err := e.Submit(JobSpec{Type: "test-block-backpressure"}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("Submit on a full queue: err = %v, want ErrQueueFull", err)
	}

	release()
	for _, j := range []*Job{running, queued} {
		if snap := waitJob(t, j); snap.Status != StatusDone {
			t.Errorf("job %s: status %s, err %q", j.ID(), snap.Status, snap.Error)
		}
	}
}

func TestCloseDrainsQueuedJobs(t *testing.T) {
	release := blockingHandler(t, "test-block-drain")
	defer release()
	e, err := New(Config{Workers: 1, QueueDepth: 8})
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	blocker := mustSubmit(t, e, JobSpec{Type: "test-block-drain"})
	var queued []*Job
	for i := 0; i < 3; i++ {
		queued = append(queued, mustSubmit(t, e, JobSpec{
			Type:   JobTypeGate,
			Params: rawParams(t, GateParams{Gate: "AND", Random: 2}),
		}))
	}

	closed := make(chan error, 1)
	go func() { closed <- e.Close(context.Background()) }()
	release()
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}

	if snap := blocker.Snapshot(); snap.Status != StatusDone {
		t.Errorf("blocker: status %s", snap.Status)
	}
	for _, j := range queued {
		if snap := j.Snapshot(); snap.Status != StatusDone {
			t.Errorf("queued job %s was not drained: status %s, err %q", j.ID(), snap.Status, snap.Error)
		}
	}
	if _, err := e.Submit(JobSpec{Type: JobTypeGate}); !errors.Is(err, ErrClosed) {
		t.Errorf("Submit after Close: err = %v, want ErrClosed", err)
	}
}

func TestCloseHardCancelsOnDeadline(t *testing.T) {
	// Never released: only engine teardown can end this job.
	Register("test-block-forever", func(ctx context.Context, _ *Env, _ json.RawMessage) (any, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	})
	e, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	j := mustSubmit(t, e, JobSpec{Type: "test-block-forever"})

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := e.Close(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Close past deadline: err = %v, want DeadlineExceeded", err)
	}
	if snap := waitJob(t, j); snap.Status != StatusCanceled {
		t.Errorf("hard-canceled job: status %s, want %s", snap.Status, StatusCanceled)
	}
}

// TestPoolStress hammers a multi-worker pool from many submitters at
// once; run under -race this is the engine's memory-safety referee.
func TestPoolStress(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 4, QueueDepth: 16})
	const submitters = 8
	const perSubmitter = 6

	var wg sync.WaitGroup
	errs := make(chan error, submitters*perSubmitter)
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			gates := []string{"AND", "TSX_XOR", "OR", "TSX_AND"}
			for i := 0; i < perSubmitter; i++ {
				spec := JobSpec{
					Type:   JobTypeGate,
					Params: rawParams(t, GateParams{Gate: gates[(s+i)%len(gates)], Random: 2}),
				}
				for {
					j, err := e.Submit(spec)
					if errors.Is(err, ErrQueueFull) {
						time.Sleep(5 * time.Millisecond)
						continue
					}
					if err != nil {
						errs <- err
						return
					}
					<-j.Done()
					if st := j.Status(); st != StatusDone {
						errs <- errors.New("job " + j.ID() + " finished " + string(st) + ": " + j.Err())
					}
					break
				}
			}
		}(s)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := e.Stats().Submitted; got < submitters*perSubmitter {
		t.Errorf("Submitted = %d, want >= %d", got, submitters*perSubmitter)
	}
}

func TestRetainJobsEvictsOldest(t *testing.T) {
	Register("test-retain", func(ctx context.Context, env *Env, params json.RawMessage) (any, error) {
		return "ok", nil
	})
	e := newTestEngine(t, Config{Workers: 1})
	var jobs []*Job
	for i := 0; i < retainJobs+1; i++ {
		j := mustSubmit(t, e, JobSpec{Type: "test-retain"})
		waitJob(t, j)
		jobs = append(jobs, j)
	}
	if _, ok := e.Get(jobs[0].ID()); ok {
		t.Error("oldest job survived past the retention window")
	}
	if _, ok := e.Get(jobs[retainJobs].ID()); !ok {
		t.Error("newest job was evicted")
	}
	if got := len(e.Jobs()); got != retainJobs {
		t.Errorf("retained %d jobs, want %d", got, retainJobs)
	}
}
