package core

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func instantReplica(v int) Replica[int] {
	return func(ctx context.Context) (int, error) { return v, nil }
}

func TestGovernorColdAllowsFullFanout(t *testing.T) {
	g := NewGovernor(2.0, 0.5)
	if got := g.Allow(3); got != 3 {
		t.Errorf("cold Allow(3) = %d, want 3", got)
	}
	if g.Gated() {
		t.Error("cold governor gated")
	}
	s := g.Stats()
	if s.Observed || s.Samples != 0 {
		t.Errorf("cold stats %+v", s)
	}
	if s.Threshold != 2.0 || s.Low != 1.5 {
		t.Errorf("band = (%g, %g), want (1.5, 2)", s.Low, s.Threshold)
	}
}

func TestGovernorGatesWithHysteresis(t *testing.T) {
	g := NewGovernor(2.0, 0.5)
	// Saturate the EWMA well above the threshold: gate on.
	for i := 0; i < 64; i++ {
		g.Observe(5.0)
	}
	if got := g.Allow(2); got != 1 {
		t.Fatalf("Allow(2) above threshold = %d, want 1", got)
	}
	if !g.Gated() {
		t.Fatal("governor not gated above threshold")
	}
	// Drop into the hysteresis band: still gated (no flap).
	for i := 0; i < 64; i++ {
		g.Observe(1.8)
	}
	if got := g.Allow(2); got != 1 {
		t.Errorf("Allow(2) inside band while gated = %d, want 1", got)
	}
	// Fall below the band: redundancy comes back.
	for i := 0; i < 64; i++ {
		g.Observe(0.5)
	}
	if got := g.Allow(2); got != 2 {
		t.Errorf("Allow(2) below band = %d, want 2", got)
	}
	if g.Gated() {
		t.Error("governor still gated below the band")
	}
	if flips := g.Stats().Flips; flips != 2 {
		t.Errorf("Flips = %d, want 2 (one on, one off)", flips)
	}
}

// TestGovernorSingleCopyCallsMoveTheGate: the hysteresis runs on every
// Allow, k = 1 included. A caller clamped to one copy while the gate was
// on — an SLO class at rung 0 — is the only caller left to see the load
// fall, so its calls must open the gate; and its calls close it too.
func TestGovernorSingleCopyCallsMoveTheGate(t *testing.T) {
	g := NewGovernor(2.0, 0.5)
	for i := 0; i < 64; i++ {
		g.Observe(5.0)
	}
	if got := g.Allow(1); got != 1 || !g.Gated() {
		t.Fatalf("Allow(1) above threshold = %d, gated %v; want 1, gated", got, g.Gated())
	}
	for i := 0; i < 64; i++ {
		g.Observe(0)
	}
	if got := g.Allow(1); got != 1 || g.Gated() {
		t.Fatalf("Allow(1) below the band = %d, gated %v; want 1, the gate open", got, g.Gated())
	}
	if got := g.Allow(2); got != 2 {
		t.Errorf("Allow(2) after the gate opened = %d, want 2", got)
	}
	if flips := g.Stats().Flips; flips != 2 {
		t.Errorf("Flips = %d, want 2 (one on, one off)", flips)
	}
}

func TestGovernorShedsLargeFanoutGradually(t *testing.T) {
	g := NewGovernor(2.0, 1.0) // band (1.0, 2.0)
	for i := 0; i < 64; i++ {
		g.Observe(0.2)
	}
	if got := g.Allow(5); got != 5 {
		t.Errorf("below band Allow(5) = %d, want 5", got)
	}
	for i := 0; i < 64; i++ {
		g.Observe(1.5) // middle of the band
	}
	got := g.Allow(5)
	if got < 2 || got >= 5 {
		t.Errorf("mid-band Allow(5) = %d, want partial shed in [2, 4]", got)
	}
	for i := 0; i < 64; i++ {
		g.Observe(3.0)
	}
	if got := g.Allow(5); got != 1 {
		t.Errorf("above threshold Allow(5) = %d, want 1", got)
	}
}

func TestGovernorDefaults(t *testing.T) {
	g := NewGovernor(0, 0)
	if g.threshold != DefaultGovernorThreshold {
		t.Errorf("default threshold = %g", g.threshold)
	}
	if g.low >= g.threshold || g.low <= 0 {
		t.Errorf("default band = (%g, %g)", g.low, g.threshold)
	}
	if got := g.Allow(1); got != 1 {
		t.Errorf("Allow(1) = %d", got)
	}
}

func TestLoadAwareStrategyOnGroup(t *testing.T) {
	gs := LoadAware(Fixed{Copies: 2}, 2.0)
	g := NewStrategyGroup[int](gs)
	g.Add("a", instantReplica(1))
	g.Add("b", instantReplica(2))

	// Cold: full fan-out.
	res, err := g.Do(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Launched != 2 {
		t.Fatalf("cold governed Do launched %d, want 2", res.Launched)
	}

	// Saturate the governor's EWMA as a loaded system would: fan-out
	// degrades to 1 and the stats say why.
	for i := 0; i < 64; i++ {
		gs.Governor().Observe(5.0)
	}
	res, err = g.Do(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Launched != 1 {
		t.Errorf("gated governed Do launched %d, want 1", res.Launched)
	}
	if !gs.Governor().Gated() {
		t.Error("governor not gated")
	}
	if s := g.Stats(); !strings.Contains(s.Strategy, "load-aware") {
		t.Errorf("Stats().Strategy = %q", s.Strategy)
	}

	// The gate sheds hedges, never quorum copies: a 3-copy strategy on
	// the same gated governor still launches the 2 a quorum of 2 needs,
	// and no more.
	gq := NewStrategyGroup[int](LoadAwareWith(Fixed{Copies: 3}, gs.Governor()))
	for i := 0; i < 3; i++ {
		gq.Add(fmt.Sprintf("q%d", i), instantReplica(i))
	}
	res, err = gq.Do(context.Background(), WithQuorum(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Launched != 2 || !gs.Governor().Gated() {
		t.Errorf("gated quorum-2 Do launched %d (gated %v), want 2 under the gate", res.Launched, gs.Governor().Gated())
	}

	// Load clears: redundancy returns.
	for i := 0; i < 256; i++ {
		gs.Governor().Observe(0)
	}
	res, err = g.Do(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Launched != 2 {
		t.Errorf("recovered governed Do launched %d, want 2", res.Launched)
	}
}

func TestLoadAwareSamplesInFlight(t *testing.T) {
	// Real in-flight copies must reach the governor: hold several calls
	// open against blocked replicas, then check the next Do's sample saw
	// them.
	gs := LoadAware(FullReplicate{}, 50.0) // high threshold: never gates here
	g := NewStrategyGroup[int](gs)
	release := make(chan struct{})
	for i := 0; i < 2; i++ {
		i := i
		g.Add(fmt.Sprintf("r%d", i), func(ctx context.Context) (int, error) {
			select {
			case <-release:
				return i, nil
			case <-ctx.Done():
				return 0, ctx.Err()
			}
		})
	}
	const held = 4
	var wg sync.WaitGroup
	for i := 0; i < held; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.Do(context.Background())
		}()
	}
	// Wait until all held calls' copies are in flight (2 replicas x held
	// calls), without sleeping for a guessed duration.
	deadline := time.Now().Add(2 * time.Second)
	for gs.Governor().Stats().InFlight < 2*held && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := gs.Governor().Stats().InFlight; got < 2*held {
		t.Fatalf("InFlight = %d, want %d", got, 2*held)
	}
	close(release)
	wg.Wait()
	// Every copy completed: capacity fully reclaimed.
	deadline = time.Now().Add(2 * time.Second)
	for gs.Governor().Stats().InFlight != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := gs.Governor().Stats().InFlight; got != 0 {
		t.Errorf("InFlight after completion = %d, want 0", got)
	}
	if s := gs.Governor().Stats(); s.Capacity != 2 || s.Samples < held {
		t.Errorf("governor stats %+v", s)
	}
}

func TestLoadAwareWithSharedGovernor(t *testing.T) {
	gov := NewGovernor(2.0, 0.5)
	s1 := LoadAwareWith(Fixed{Copies: 2}, gov)
	s2 := LoadAwareWith(AdaptiveHedge{Copies: 2}, gov)
	if s1.Governor() != gov || s2.Governor() != gov {
		t.Fatal("shared governor not threaded through")
	}
	if s1.Inner().String() != (Fixed{Copies: 2}).String() {
		t.Errorf("Inner() = %v", s1.Inner())
	}
	// Nil inner and nil governor normalize.
	s3 := LoadAwareWith(nil, nil)
	if k, _ := s3.Fanout(); k != 2 {
		t.Errorf("nil-inner Fanout = %d, want 2", k)
	}
	if !strings.Contains(s3.String(), "load-aware") {
		t.Errorf("String() = %q", s3.String())
	}
}
