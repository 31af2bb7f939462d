package memkv

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"redundancy/internal/core"
	"redundancy/internal/core/coretest"
)

// These tests pin who owns a value's bytes. Reads: an opValueV reply's
// value lands in a buffer from Take, the slice a read returns is its
// caller's until that caller Releases it, and a released buffer is never
// in two hands. Writes:
// PutVersioned, PutVersionAt and CAS read the caller's slice until they
// return and never after — a late hint carries the frame's own copy, an
// early one the caller's slice itself. Run with -race -count=5: a -race
// build poisons what Release pools.

// keepingSink is a RepairSink that does what the contract asks of one:
// it copies the value it is handed, and notes where that value lay.
type keepingSink struct {
	mu    sync.Mutex
	hints []keptHint
	each  chan struct{}
}

type keptHint struct {
	key, owner string
	value      []byte
	first      *byte // the handed slice's first byte: whose memory it was
}

func newKeepingSink() *keepingSink { return &keepingSink{each: make(chan struct{}, 16)} }

func (s *keepingSink) WriteMissed(key string, value []byte, _ uint64, _ time.Duration, owner string) {
	h := keptHint{key: key, owner: owner, value: append([]byte(nil), value...)}
	if len(value) > 0 {
		h.first = &value[0]
	}
	s.mu.Lock()
	s.hints = append(s.hints, h)
	s.mu.Unlock()
	s.each <- struct{}{}
}

func (s *keepingSink) Divergence(string, []byte, uint64, uint32, []string) {}

// only waits for the first hint and returns it, failing if a second
// follows.
func (s *keepingSink) only(t *testing.T) keptHint {
	t.Helper()
	select {
	case <-s.each:
	case <-time.After(versionedStragglerTimeout + 5*time.Second):
		t.Fatal("no missed write was reported")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.hints) != 1 {
		t.Fatalf("%d missed writes reported, want 1", len(s.hints))
	}
	return s.hints[0]
}

// scribble overwrites a slice the way a caller reusing its buffer would.
func scribble(b []byte) {
	for i := range b {
		b[i] = '!'
	}
}

// versionedWrites are the three calls that share the borrowing contract.
var versionedWrites = []struct {
	name string
	do   func(sc *ShardedClient, ctx context.Context, key string, value []byte) error
}{
	{"PutVersioned", func(sc *ShardedClient, ctx context.Context, key string, value []byte) error {
		_, err := sc.PutVersioned(ctx, key, value, 0)
		return err
	}},
	{"PutVersionAt", func(sc *ShardedClient, ctx context.Context, key string, value []byte) error {
		return sc.PutVersionAt(ctx, key, value, 0, sc.NextVersion())
	}},
	{"CAS", func(sc *ShardedClient, ctx context.Context, key string, value []byte) error {
		_, err := sc.CAS(ctx, key, value, 0, 0)
		return err
	}},
}

// TestShardedWriteStragglerHintsTheOriginalBytes: a write quorum of one
// over two owners, the second stalled. The call returns on the first
// owner's ack, the caller overwrites its slice at once, and only then is
// the second owner killed: the hint for its copy carries what was
// written, not what the slice holds now.
func TestShardedWriteStragglerHintsTheOriginalBytes(t *testing.T) {
	for _, write := range versionedWrites {
		t.Run(write.name, func(t *testing.T) {
			var stalled atomic.Int32
			stalled.Store(-1)
			sc, servers, muxes := startAsyncShards(t, 2, ShardedConfig{Replication: 2, WriteQuorum: 1}, 30*time.Second,
				func(i int) func() time.Duration {
					return func() time.Duration {
						if int32(i) == stalled.Load() {
							return time.Minute
						}
						return 0
					}
				})
			warmPuts(t, sc, muxes)
			drained(t, muxes)
			sink := newKeepingSink()
			sc.SetRepairSink(sink)
			// The second owner: CAS executes at the first.
			second := muxIndex(t, muxes, sc.Owners("k")[1])
			stalled.Store(int32(second))

			original := bytes.Repeat([]byte("original"), 128)
			value := append([]byte(nil), original...)
			if err := write.do(sc, context.Background(), "k", value); err != nil {
				t.Fatal(err)
			}
			scribble(value)
			servers[second].Close()
			h := sink.only(t)
			if h.key != "k" || h.owner != muxes[second].Addr() {
				t.Errorf("hint for %s@%s, want k@%s", h.key, h.owner, muxes[second].Addr())
			}
			if !bytes.Equal(h.value, original) {
				t.Errorf("the hint carries %.16q…, not the %.16q… that was written: the frame read the caller's slice after the call returned", h.value, original)
			}
		})
	}
}

// heldPutMux is a wrapper Backend — so every write copy reaches it the
// blocking way, through PutV on a goroutine — whose PutV, once armed,
// waits to be let go, reports the value it was handed, and fails.
type heldPutMux struct {
	*MuxClient
	armed atomic.Bool
	letGo chan struct{}
	saw   chan []byte
}

func (h *heldPutMux) PutV(ctx context.Context, key string, value []byte, ttl time.Duration, version uint64) (uint64, bool, error) {
	if !h.armed.Load() {
		return h.MuxClient.PutV(ctx, key, value, ttl, version)
	}
	select {
	case <-h.letGo:
	case <-ctx.Done(): // the test failed before letting go
	}
	h.saw <- append([]byte(nil), value...)
	return 0, false, errors.New("killed by the test")
}

// TestShardedWriteBlockingCopyKeepsItsOwnValue: the same contract for a
// copy launched the blocking way. Its goroutine enters the wrapper's PutV
// whenever it is scheduled and stays as long as the wrapper likes; what
// it hands over, after the caller has reused its slice, is the original,
// and so is the hint when it fails.
func TestShardedWriteBlockingCopyKeepsItsOwnValue(t *testing.T) {
	for _, write := range versionedWrites {
		t.Run(write.name, func(t *testing.T) {
			wrapped := make([]*heldPutMux, 2)
			backends := make([]Backend, 2)
			for i := range wrapped {
				_, addr := startServer(t)
				wrapped[i] = &heldPutMux{MuxClient: NewMuxClient(addr, 5*time.Second), letGo: make(chan struct{}), saw: make(chan []byte, 1)}
				backends[i] = wrapped[i]
			}
			sc := NewShardedClient(ShardedConfig{Replication: 2, WriteQuorum: 1}, backends...)
			defer closeAll(backends)
			sink := newKeepingSink()
			sc.SetRepairSink(sink)
			var second *heldPutMux
			for _, w := range wrapped {
				if w.Addr() == sc.Owners("k")[1] {
					second = w
				}
			}
			second.armed.Store(true)

			original := bytes.Repeat([]byte("original"), 128)
			value := append([]byte(nil), original...)
			if err := write.do(sc, context.Background(), "k", value); err != nil {
				t.Fatal(err)
			}
			scribble(value)
			close(second.letGo)
			if saw := <-second.saw; !bytes.Equal(saw, original) {
				t.Errorf("the blocking copy handed PutV %.16q… after its caller returned, want the %.16q… written", saw, original)
			}
			if h := sink.only(t); h.owner != second.Addr() || !bytes.Equal(h.value, original) {
				t.Errorf("hint for %s carries %.16q…, want %s and the %.16q… written", h.owner, h.value, second.Addr(), original)
			}
		})
	}
}

// startOneDeafOwner is a quorum-1-of-2 client over two warmed-up owners:
// muxes[0]'s server answers after delay to a patient client; muxes[1]'s
// sits on every request for a minute and its client times out after
// giveUp, so every write's copy to it fails — started, not declined.
func startOneDeafOwner(t *testing.T, delay func() time.Duration, giveUp time.Duration) (*ShardedClient, []*MuxClient) {
	t.Helper()
	_, live := startServerDelay(t, delay)
	_, deaf := startServerDelay(t, func() time.Duration { return time.Minute })
	muxes := []*MuxClient{NewMuxClient(live, 5*time.Second), NewMuxClient(deaf, giveUp)}
	backends := []Backend{muxes[0], muxes[1]}
	sc := NewShardedClient(ShardedConfig{Replication: 2, WriteQuorum: 1}, backends...)
	t.Cleanup(func() { closeAll(backends) })
	// Every warm-up put's copy to the deaf owner fails, and a copy leaves
	// the waiter table before it completes: wait for all those misses, so
	// that none lands in the sink the test installs next.
	warm := &recordingSink{}
	sc.SetRepairSink(warm)
	puts := warmPuts(t, sc, muxes)
	deadline := time.Now().Add(versionedStragglerTimeout)
	for {
		warm.mu.Lock()
		missed := len(warm.missed)
		warm.mu.Unlock()
		if missed == puts {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d warm-up puts reported their miss", missed, puts)
		}
		time.Sleep(time.Millisecond)
	}
	sc.SetRepairSink(nil)
	drained(t, muxes)
	return sc, muxes
}

// TestShardedWriteEarlyFailureHintsWithoutACopy: a copy that fails while
// its caller is still waiting for the quorum is reported with the
// caller's own slice — the very bytes, not a copy of them — because the
// caller cannot touch it yet; and a write whose copies have all finished
// by its return never copies at all.
func TestShardedWriteEarlyFailureHintsWithoutACopy(t *testing.T) {
	// One owner answers after 60 ms; the other's client gives up in 5.
	sc, muxes := startOneDeafOwner(t, func() time.Duration { return 60 * time.Millisecond }, 5*time.Millisecond)
	sink := newKeepingSink()
	sc.SetRepairSink(sink)

	value := bytes.Repeat([]byte("original"), 128)
	began := time.Now()
	if _, err := sc.PutVersioned(context.Background(), "k", value, 0); err != nil {
		t.Fatal(err)
	}
	if waited := time.Since(began); waited < 50*time.Millisecond {
		t.Fatalf("PutVersioned returned after %v: the impatient owner's failure was taken for the quorum", waited)
	}
	h := sink.only(t)
	if h.owner != muxes[1].Addr() || !bytes.Equal(h.value, value) {
		t.Errorf("hint for %s carries %.16q…, want %s and the value written", h.owner, h.value, muxes[1].Addr())
	}
	if h.first != &value[0] {
		t.Error("the hint for a copy that failed before the call returned was handed a copy of the value, not the caller's slice")
	}
}

// TestShardedWriteHintRacesTheCallersReturn: the two sides of the
// contract at the same instant. One owner acks within two milliseconds,
// the other's copy times out after one, so a failure's hint and the
// caller's return — followed at once by the caller overwriting its slice
// — keep crossing. Whichever comes first, the hint carries the write's
// bytes: read from the caller's slice before the caller returns, or from
// the write's own copy after.
func TestShardedWriteHintRacesTheCallersReturn(t *testing.T) {
	sc, muxes := startOneDeafOwner(t, jitter(1, 2*time.Millisecond), time.Millisecond)
	hints := newHintSink(t) // checks every hint's value against its key and version
	sc.SetRepairSink(hints)
	ctx := context.Background()
	const puts = 400
	for i := 0; i < puts; i++ {
		key, ver := fmt.Sprint("k", i), sc.NextVersion()
		value := putValue(key, ver)
		if err := sc.PutVersionAt(ctx, key, value, 0, ver); err != nil {
			t.Fatal(err)
		}
		scribble(value)
	}
	drained(t, muxes)
	// A copy leaves the waiter table before it completes into its frame,
	// so the last puts' misses may still be on their way: wait for each
	// key's before counting it.
	deadline := time.Now().Add(versionedStragglerTimeout)
	for i := 0; i < puts; i++ {
		key := fmt.Sprint("k", i)
		for hints.count(key, muxes[1].Addr()) == 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := hints.count(key, muxes[1].Addr()); n != 1 {
			t.Fatalf("k%d: %d hints for the owner that never answers, want 1", i, n)
		}
	}
}

// TestShardedPutVersionedQuorumOneAllocations: the price of the contract
// in numbers. Under a write quorum of one of two, a put that returns with
// its second copy still out has copied its value once: 1 allocation in
// the whole process, that copy — the servers overwrite the stored values
// in place. (Write-all is TestShardedPutVersionedAllocations: 0, no
// copy.)
//
// Each put is measured with nothing else in flight: it waits for its
// straggler's reply before the next put starts. Back to back, the puts
// outrun a reader starved of CPU, and every straggler still out pins its
// call frame, so a put that finds the frame pool empty makes a new frame
// (the frame, its results channel and its copy slots) — under load up
// to 190 frames per measurement, the working set of puts in flight, not
// a cost of one put.
func TestShardedPutVersionedQuorumOneAllocations(t *testing.T) {
	if coretest.Race() {
		t.Skip("allocation counts are not exact under the race detector")
	}
	sc, _, muxes := startAsyncShards(t, 2, ShardedConfig{Replication: 2, WriteQuorum: 1}, 5*time.Second, nil)
	warmPuts(t, sc, muxes)
	ctx := context.Background()
	value := bytes.Repeat([]byte{'v'}, 1024)
	put := func() {
		if _, err := sc.PutVersioned(ctx, "key-000042", value, 0); err != nil {
			t.Fatal(err)
		}
		for pendingTags(muxes[0])+pendingTags(muxes[1]) > 0 {
			runtime.Gosched()
		}
	}
	for i := 0; i < 100; i++ {
		put()
	}
	avg := testing.AllocsPerRun(2000, put)
	t.Logf("PutVersioned, quorum 1 of 2: %.2f allocs", avg)
	if avg > 1 {
		t.Errorf("a quorum-1 PutVersioned allocates %.2f times across client and servers, want at most 1", avg)
	}
	drained(t, muxes)
}

// TestMuxValuePoolSizes: Take returns exactly what was asked for at and
// around every class boundary, whatever buffers of the same class were
// released before — a buffer too short for the request is passed over,
// never returned.
func TestMuxValuePoolSizes(t *testing.T) {
	sizes := []int{0, 1, 63, 64, 65, 127, 128, 1000, 1023, 1024, 1025, 2047, 65535, 65536, 65537}
	check := func(when string) {
		for _, n := range sizes {
			b := Take(n)
			if len(b) != n || cap(b) < n {
				t.Fatalf("%s: Take(%d) returned len %d cap %d", when, n, len(b), cap(b))
			}
			for i := range b {
				b[i] = byte(n)
			}
		}
	}
	check("empty pool")
	// Stock every class with its shortest member: the worst neighbour for
	// a request at the top of the class.
	for round := 0; round < 4; round++ {
		for c := 0; c < poolClasses; c++ {
			Release(make([]byte, minPooled<<c))
		}
		check("after releasing each class's shortest buffer")
	}
	for _, n := range sizes {
		Release(Take(n))
	}
	check("after releasing every size")

	if got := [...]int{poolClass(64), poolClass(127), poolClass(128), poolClass(1000), poolClass(1024), poolClass(65535), poolClass(65536)}; got != [...]int{0, 0, 1, 3, 4, 9, 10} {
		t.Errorf("class of 64, 127, 128, 1000, 1024, 65535, 65536 bytes = %v", got)
	}
}

// TestMuxValuePoolAcceptsAnything: Release is optional and takes whatever
// it is given. Nothing below may panic, and nothing outside the pooled
// range may come back out.
func TestMuxValuePoolAcceptsAnything(t *testing.T) {
	Release(nil)
	Release([]byte{})
	Release(make([]byte, 0, 8))
	big := make([]byte, 100<<10)
	Release(big)
	v := Take(1024)
	Release(v[3:]) // a sub-slice is a buffer too, three bytes shorter
	for i := 0; i < 64; i++ {
		b := Take(maxPooled)
		if len(b) != maxPooled {
			t.Fatalf("Take(%d) returned %d bytes", maxPooled, len(b))
		}
		if &b[0] == &big[0] {
			t.Fatal("a 100 KiB buffer was pooled")
		}
	}
}

// TestMuxValuePoolSteadyLoopHits: a caller that takes and gives back
// values of one size reuses its buffer, and 1000 bytes — not a class size
// — does so as well as 1 KiB: a miss allocates exactly what was asked
// for, and a released buffer serves any later request it is long enough
// for. A miss therefore costs a keeper what make([]byte, n) costs.
func TestMuxValuePoolSteadyLoopHits(t *testing.T) {
	for _, n := range []int{64, 1000, 1024} {
		first := Take(n)
		Release(first)
		hits, last := 0, &first[0]
		for i := 0; i < 1000; i++ {
			b := Take(n)
			if &b[0] == last {
				hits++
			}
			b[0], b[n-1] = byte(i), byte(i)
			last = &b[0]
			Release(b)
		}
		// A -race build's sync.Pool drops a quarter of its Puts at random,
		// and a collection empties it.
		if hits < 500 {
			t.Errorf("%d-byte values: %d of 1000 takes reused the buffer just released", n, hits)
		}
	}
	if !coretest.Race() {
		loop := func() { Release(Take(1000)) }
		loop()
		if avg := testing.AllocsPerRun(1000, loop); avg != 0 {
			t.Errorf("a take/give-back loop of 1000-byte values allocates %.2f times per round, want 0", avg)
		}
		keep := func() { _ = Take(1000) }
		for valuePools[poolClass(1000)].Get() != nil {
			// Empty the class of what the loop and earlier tests left.
		}
		if avg := testing.AllocsPerRun(1000, keep); avg != 1 {
			t.Errorf("a caller that keeps its 1000-byte values allocates %.2f times per take, want 1", avg)
		}
	}
}

// TestMuxValuePoolCounts: Take looks in a class only while buffers
// released into it are not all taken back. A released buffer raises the
// class's count and is taken back by the next Take of its class, which
// lowers it; a Take that finds the class empty though the count says
// otherwise (its buffers were collected) sets the count to 0; and a class
// with a count of 0 is not looked in at all, whatever it holds.
func TestMuxValuePoolCounts(t *testing.T) {
	// One P, so that a buffer put in the pool is the next one got from it;
	// set before the class is used, since a change of GOMAXPROCS drops
	// every sync.Pool's per-P lists.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const n = 8000
	c := poolClass(n)
	empty := func() {
		for valuePools[c].Get() != nil {
		}
		stocked[c].Store(0)
	}
	empty()

	// Never released into: a buffer put in the class behind the count's
	// back is not found.
	planted := make([]byte, n)
	box := &planted
	valuePools[c].Put(box)
	if b := Take(n); &b[0] == &planted[0] {
		t.Fatal("Take looked in a class nothing was released into")
	}
	if got := stocked[c].Load(); got != 0 {
		t.Fatalf("count %d after a Take from a class never released into, want 0", got)
	}
	empty()

	// Released, then taken back.
	b := make([]byte, n)
	Release(b)
	Release(make([]byte, n))
	if got := stocked[c].Load(); got != 2 {
		t.Fatalf("count %d after two releases, want 2", got)
	}
	// A -race build's sync.Pool drops a quarter of its Puts at random, so
	// only a plain build is sure to hit.
	if got := Take(n); !coretest.Race() && (&got[0] != &b[0] || stocked[c].Load() != 1) {
		t.Errorf("after two releases Take returned the first: %v, count %d; want true, 1", &got[0] == &b[0], stocked[c].Load())
	}

	// A miss: the count says 3, the class is empty.
	empty()
	for range 3 {
		Release(make([]byte, n))
	}
	for valuePools[c].Get() != nil {
	}
	if got := stocked[c].Load(); got != 3 {
		t.Fatalf("count %d after three releases the pool lost, want 3", got)
	}
	Take(n)
	if got := stocked[c].Load(); got != 0 {
		t.Errorf("count %d after a miss, want 0", got)
	}
}

// TestMuxReleasePoisonsUnderRace: in a -race build a released buffer is
// overwritten before it is pooled, so any test in the raced suite that
// reads a value after giving it back sees poison, not the bytes it hoped
// were still there. In a plain build Release leaves the bytes alone.
func TestMuxReleasePoisonsUnderRace(t *testing.T) {
	v := bytes.Repeat([]byte{'v'}, 1024)
	Release(v[:512])
	want := byte('v')
	if raceEnabled {
		want = poison
	}
	if raceEnabled != coretest.Race() {
		t.Fatalf("raceEnabled = %v in a build where -race is %v", raceEnabled, coretest.Race())
	}
	for i, b := range v {
		if b != want {
			t.Fatalf("byte %d of a released buffer is %#x, want %#x (race build: %v)", i, b, want, raceEnabled)
		}
	}
}

// crcValue is a value that proves itself: its key, a sequence number,
// padding to n bytes, and a CRC of all that. A buffer shared between two
// readers, or recycled under one, fails the check.
func crcValue(key string, seq, n int) []byte {
	b := make([]byte, n)
	copy(b, fmt.Sprintf("%s#%d|", key, seq))
	binary.BigEndian.PutUint32(b[n-4:], crc32.ChecksumIEEE(b[:n-4]))
	return b
}

// TestMuxHeldValuesSurviveOthersReleases: a value Get returned is its
// holder's until the holder gives it back. Half the callers here release
// every value they read at once; the other half hold a hundred at a time
// and check them afterwards — each still its own key's bytes, no two the
// same memory — whatever the first half's buffers have been through.
func TestMuxHeldValuesSurviveOthersReleases(t *testing.T) {
	sc, _, muxes := startAsyncShards(t, 3, ShardedConfig{Replication: 2}, 5*time.Second, nil)
	warmPuts(t, sc, muxes)
	ctx := context.Background()
	const nkeys, size = 100, 1000
	keys, vals := make([]string, nkeys), make([][]byte, nkeys)
	for k := range keys {
		keys[k] = fmt.Sprint("key-", k)
		vals[k] = crcValue(keys[k], k, size)
		if _, err := sc.PutVersioned(ctx, keys[k], vals[k], 0); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var churn, holders sync.WaitGroup
	for c := 0; c < 4; c++ {
		churn.Add(1)
		go func() {
			defer churn.Done()
			for i := c; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := i % nkeys
				v, err := sc.Get(ctx, keys[k])
				if err != nil || !bytes.Equal(v, vals[k]) {
					t.Errorf("Get(%s) = (%.24q…, %v)", keys[k], v, err)
					return
				}
				Release(v)
			}
		}()
	}
	for c := 0; c < 4; c++ {
		holders.Add(1)
		go func() {
			defer holders.Done()
			for round := 0; round < 10; round++ {
				held := make([][]byte, nkeys)
				for k := range held {
					v, err := sc.Get(ctx, keys[k])
					if err != nil {
						t.Errorf("Get(%s): %v", keys[k], err)
						return
					}
					held[k] = v
				}
				where := make(map[*byte]int, nkeys)
				for k, v := range held {
					if !bytes.Equal(v, vals[k]) {
						t.Errorf("the value held for %s reads %.24q… after other callers' releases", keys[k], v)
						return
					}
					if other, dup := where[&v[0]]; dup {
						t.Errorf("%s and %s were returned the same buffer, and neither was released", keys[k], keys[other])
						return
					}
					where[&v[0]] = k
				}
			}
		}()
	}
	holders.Wait()
	close(stop)
	churn.Wait()
}

// TestShardedQuorumGetReleasesVotes: a WithQuorum(2) read over two
// owners decodes both votes and returns one. The vote it does not
// return is nobody's, and readQuorum gives it back, so a caller that
// releases what it read leaves no value-sized garbage at all: one
// allocation per read fewer than when the other vote was left to the
// collector (12 then, with the result released).
func TestShardedQuorumGetReleasesVotes(t *testing.T) {
	if coretest.Race() {
		t.Skip("allocation counts are meaningless under -race")
	}
	sc, _, muxes := startAsyncShards(t, 2, ShardedConfig{Replication: 2}, 5*time.Second, nil)
	warmPuts(t, sc, muxes)
	ctx := context.Background()
	value := bytes.Repeat([]byte{'q'}, 1000)
	if _, err := sc.PutVersioned(ctx, "key-quorum", value, 0); err != nil {
		t.Fatal(err)
	}
	read := func() {
		res, err := sc.GetResult(ctx, "key-quorum", core.WithQuorum(2))
		if err != nil || !bytes.Equal(res.Value.Value, value) {
			t.Fatalf("quorum Get = (%.16q…, %v)", res.Value.Value, err)
		}
		Release(res.Value.Value)
	}
	for i := 0; i < 200; i++ {
		read()
	}
	const reads = 4000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reads; i++ {
		read()
	}
	runtime.ReadMemStats(&after)
	perRead := float64(after.Mallocs-before.Mallocs) / reads
	t.Logf("WithQuorum(2) read, result released: %.3f allocations per read", perRead)
	if perRead > 11.5 {
		t.Errorf("a WithQuorum(2) read whose result is released allocates %.3f times across client and servers, want 11: the vote it does not return is released too", perRead)
	}
}
