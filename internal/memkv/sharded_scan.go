package memkv

import (
	"context"
	"fmt"
	"sort"
)

// ScanMerged returns one globally key-ordered page of the cluster's
// live entries: up to limit keys strictly greater than after, merged
// across every shard with replicated copies deduplicated to the newest
// version. more reports whether another page exists (pass the last
// returned key as the next cursor), exactly like MuxClient.Scan — this
// is the front-door counterpart of the per-shard anti-entropy stream.
//
// One page of size limit from each shard suffices for a correct global
// page: the i-th smallest distinct key (i <= limit) lives on some
// shard, where fewer than i smaller keys precede it, so it is inside
// that shard's page. A shard error fails the whole scan rather than
// silently returning a partial keyspace.
func (sc *ShardedClient) ScanMerged(ctx context.Context, after string, limit int) ([]ScanEntry, bool, error) {
	if limit < 1 || limit > maxScanLimit {
		limit = maxScanLimit
	}
	more := false
	merged := make(map[string]ScanEntry)
	for _, cl := range sc.shards.Entries() {
		entries, shardMore, err := cl.Scan(ctx, after, limit)
		if err != nil {
			return nil, false, fmt.Errorf("memkv: scan %s: %w", cl.Addr(), err)
		}
		if shardMore {
			// Keys remain beyond this shard's page. Every one of them is
			// greater than each key returned here, so whether or not it
			// duplicates a key merged from another shard, a further
			// distinct key exists past the page we can return.
			more = true
		}
		for _, e := range entries {
			if prev, ok := merged[e.Key]; !ok || e.Version > prev.Version {
				merged[e.Key] = e
			}
		}
	}
	out := make([]ScanEntry, 0, len(merged))
	for _, e := range merged {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	if len(out) > limit {
		out, more = out[:limit], true
	}
	return out, more, nil
}
