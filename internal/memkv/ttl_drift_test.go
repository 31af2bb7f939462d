package memkv

import (
	"context"
	"math"
	"testing"
	"time"
)

// The TTL-drift bug family: GetVersion used to round the remaining TTL
// UP to whole seconds (minimum 1), and every repair/migration hop
// re-applied that rounded value relative to its own clock — so a key
// bouncing between replicas gained up to a second of life per hop and,
// hopped often enough, never expired. These tests pin the fixed
// contract; both fail against the pre-fix behavior.

// GetVersion floors the remaining TTL and reports a key in its final
// sub-second of life as absent (without reaping it — the sweeper owns
// the true deadline).
func TestGetVersionFloorsRemainingTTL(t *testing.T) {
	s := NewStore()
	s.SetTTL("f", 0, []byte("v"), 2*time.Second)

	// Immediately after the write ~2s remain; the floor may legally
	// report 1 (1.999…s → 1) but never 2-rounded-up-from-less, and never
	// more than 2.
	_, _, _, ttlSecs, ok := s.GetVersion("f")
	if !ok || ttlSecs < 1 || ttlSecs > 2 {
		t.Fatalf("fresh key: (ttl=%d, ok=%v), want 1..2", ttlSecs, ok)
	}

	// Inside the final second the key reads as absent to versioned
	// readers — the value a repair hop would copy is 0, not a rounded-up
	// 1 that would extend its life.
	time.Sleep(1300 * time.Millisecond)
	if _, _, _, ttlSecs, ok := s.GetVersion("f"); ok {
		t.Fatalf("key with <1s left: (ttl=%d, ok=%v), want absent", ttlSecs, ok)
	}
	// But it is not reaped early: the plain read still sees it until the
	// true deadline.
	if _, _, ok := s.Get("f"); !ok {
		t.Fatal("key reaped before its deadline by the versioned read")
	}
}

// A key relayed through N repair-style hops — read the remaining TTL
// off one replica, re-apply it relative-to-now at the next, as hint
// replay, read repair, and migration all do — must still expire within
// the original TTL plus one second of wire rounding. Under the pre-fix
// round-up this loop extended the deadline on every hop and the key
// outlived the bound several times over.
func TestTTLRepairHopsDoNotExtendLifetime(t *testing.T) {
	const ttl = 2 * time.Second
	// Original TTL + 1s wire round-up + scheduling slack.
	bound := ttl + time.Second + 500*time.Millisecond

	cur := NewStore()
	cur.SetTTL("hop", 0, []byte("v"), ttl)
	start := time.Now()

	hops := 0
	for {
		time.Sleep(250 * time.Millisecond)
		val, flags, ver, ttlSecs, ok := cur.GetVersion("hop")
		if !ok {
			break // expired (or in its final sub-second): the hops are over
		}
		if time.Since(start) > bound {
			t.Fatalf("key still alive after %v and %d hops, want dead within %v",
				time.Since(start), hops, bound)
		}
		// A fresh replica receives the copy, exactly as a replayed hint
		// or migration put would install it.
		next := NewStore()
		if _, applied := next.PutVersion("hop", flags, val, time.Duration(ttlSecs)*time.Second, ver); !applied {
			t.Fatalf("hop %d: put not applied on fresh store", hops)
		}
		cur = next
		hops++
	}
	if elapsed := time.Since(start); elapsed > bound {
		t.Fatalf("key survived %v through %d hops, want <= %v", elapsed, hops, bound)
	}
	if hops == 0 {
		t.Fatal("key died before a single hop; the relay never ran")
	}
}

// A TTL goes on the wire as whole seconds in a u32. One past 2^32-1
// seconds — about 136 years, which time.ParseDuration and the gateway's
// ?ttl= both accept — saturates there; a wrap would send 2^32+1 s as 1 s
// and expire the key after a second.
func TestTTLSecondsSaturates(t *testing.T) {
	past := (1<<32 + 1) * time.Second
	for _, c := range []struct {
		ttl  time.Duration
		want uint32
	}{
		{0, 0},
		{time.Nanosecond, 1},
		{time.Second, 1},
		{1500 * time.Millisecond, 2},
		{past, math.MaxUint32},
		{math.MaxInt64, math.MaxUint32},
	} {
		if got := ttlSeconds(c.ttl); got != c.want {
			t.Errorf("ttlSeconds(%v) = %d, want %d", c.ttl, got, c.want)
		}
	}

	sc, _ := startShards(t, 1, ShardedConfig{})
	ctx := context.Background()
	if _, err := sc.PutVersioned(ctx, "ttl/far", []byte("v"), past); err != nil {
		t.Fatal(err)
	}
	_, _, ttlSecs, err := sc.VersionedShard(sc.Owners("ttl/far")[0]).GetV(ctx, "ttl/far")
	if err != nil || ttlSecs <= 1<<31 {
		t.Fatalf("GetV after a put at %v: ttl %d s, err %v; want over 2^31 s", past, ttlSecs, err)
	}
}
