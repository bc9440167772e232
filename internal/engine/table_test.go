package engine

import (
	"fmt"
	"testing"
)

// Routing keys of distinct client sockets must spread over the table's
// shards, or every listener and worker contends on one lock.
func TestSessionTableSpreadsKeys(t *testing.T) {
	tab := newSessionTable()
	used := map[*tableShard]bool{}
	for i := 0; i < 24; i++ {
		used[tab.shardFor(fmt.Sprintf("udp:5353|10.0.1.%d:5353", i+1))] = true
	}
	if len(used) < 2 {
		t.Fatalf("24 client keys landed on %d of %d shards", len(used), sessionShards)
	}
}
