package cluster

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// staticPool builds a pool with no probe loop, for routing-policy
// tests that want full control of backend state.
func staticPool(states ...State) *Pool {
	p := &Pool{}
	for i, st := range states {
		p.backends = append(p.backends, &Backend{
			URL:   fmt.Sprintf("http://backend-%d", i),
			Index: i,
			state: st,
		})
	}
	return p
}

func TestPickTakesLeastLoaded(t *testing.T) {
	p := staticPool(StateUp, StateUp, StateUp)
	p.backends[0].inflight.Store(3)
	p.backends[1].inflight.Store(1)
	p.backends[2].inflight.Store(2)
	b := p.Pick(nil)
	if b == nil || b.Index != 1 {
		t.Fatalf("Pick over in-flight counts 3/1/2 = %v, want backend 1", b)
	}
	if n := b.inflight.Load(); n != 2 {
		t.Fatalf("picked backend's in-flight count = %d, want the claim to raise it to 2", n)
	}
	b.release()
	if n := b.inflight.Load(); n != 1 {
		t.Fatalf("in-flight count after release = %d, want 1", n)
	}
}

func TestPickTiesGoToLowestIndex(t *testing.T) {
	p := staticPool(StateUp, StateUp, StateUp)
	for i := 0; i < 3; i++ {
		b := p.Pick(nil)
		if b.Index != 0 {
			t.Fatalf("idle pool, pick %d: backend %d, want 0", i, b.Index)
		}
		b.release()
	}
	p.backends[0].inflight.Store(1)
	if b := p.Pick(nil); b.Index != 1 {
		t.Fatalf("backends 1 and 2 tied at zero: picked %d, want 1", b.Index)
	}
}

func TestPickConcurrentClaimsAreDistinct(t *testing.T) {
	const n = 8
	states := make([]State, n)
	for i := range states {
		states[i] = StateUp
	}
	p := staticPool(states...)
	start := make(chan struct{})
	got := make(chan int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got <- p.Pick(nil).Index
		}()
	}
	close(start)
	wg.Wait()
	close(got)
	seen := map[int]bool{}
	for idx := range got {
		if seen[idx] {
			t.Fatalf("two of %d simultaneous picks over %d idle backends took backend %d", n, n, idx)
		}
		seen[idx] = true
	}
}

func TestPickExcludesAndFailsOver(t *testing.T) {
	p := staticPool(StateUp, StateUp)
	first := p.Pick(nil)
	first.release()
	second := p.Pick(map[int]bool{first.Index: true})
	if second == nil || second.Index == first.Index {
		t.Fatalf("exclusion did not move the pick off backend %d", first.Index)
	}
	second.release()
	if b := p.Pick(map[int]bool{0: true, 1: true}); b != nil {
		t.Fatalf("all-excluded pick returned backend %d, want nil", b.Index)
	}
}

func TestPickSkipsDrainingAndDown(t *testing.T) {
	p := staticPool(StateUp, StateUp, StateUp)
	for _, victim := range p.backends {
		victim.markDraining("test")
		for i := 0; i < 5; i++ {
			got := p.Pick(nil)
			if got == victim {
				t.Fatalf("pick %d landed on draining backend %d", i, victim.Index)
			}
			got.release()
		}
		victim.markUp()
	}
	// With every backend unroutable, desperation routing still returns
	// one: trying a draining backend beats refusing outright.
	for _, b := range p.backends {
		b.markDown("test")
	}
	if b := p.Pick(nil); b == nil {
		t.Fatal("all-down pool refused to pick; want desperation fallback")
	}
}

func TestPickSkipsSheddingUntilWindowElapses(t *testing.T) {
	p := staticPool(StateUp, StateUp)
	victim := p.Pick(nil)
	victim.release()
	victim.shed(50 * time.Millisecond)
	if victim.State() != StateShedding {
		t.Fatalf("state after shed = %q, want shedding", victim.State())
	}
	got := p.Pick(nil)
	if got == victim {
		t.Fatal("pick landed on shedding backend inside its Retry-After window")
	}
	got.release()
	time.Sleep(60 * time.Millisecond)
	if victim.State() != StateUp {
		t.Fatalf("state after window elapsed = %q, want up", victim.State())
	}
	if got := p.Pick(nil); got != victim {
		t.Fatalf("pick did not return to backend %d after its shedding window", victim.Index)
	}
}

func TestNormalizeURL(t *testing.T) {
	for in, want := range map[string]string{
		"127.0.0.1:8081":         "http://127.0.0.1:8081",
		"http://host:1/":         "http://host:1",
		"https://host:2":         "https://host:2",
		"http://127.0.0.1:9////": "http://127.0.0.1:9",
	} {
		if got := normalizeURL(in); got != want {
			t.Errorf("normalizeURL(%q) = %q, want %q", in, got, want)
		}
	}
}
