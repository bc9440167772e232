package engine

import (
	"fmt"
	"testing"

	"starlink/internal/netapi"
	"starlink/internal/netengine"
)

// Routing keys of distinct client sockets must spread over the table's
// shards, or every listener and worker contends on one lock.
func TestSessionTableSpreadsKeys(t *testing.T) {
	tab := newSessionTable()
	used := map[*tableShard]bool{}
	for i := 0; i < 24; i++ {
		src := netengine.Source{Addr: netapi.Addr{IP: fmt.Sprintf("10.0.1.%d", i+1), Port: 5353}}
		used[tab.shardFor(sessionKey{RoutingKey: src.RoutingKey()})] = true
	}
	if len(used) < 2 {
		t.Fatalf("24 client keys landed on %d of %d shards", len(used), sessionShards)
	}
}
