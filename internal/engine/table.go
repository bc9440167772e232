package engine

import (
	"strconv"
	"sync"

	"starlink/internal/netengine"
)

// sessionKey is a session's table key: the routing key of its initiating
// payload, and n, which tells apart the sessions one client socket opens
// while an earlier one is still live (0 for the first; the session's
// sequence number after that).
type sessionKey struct {
	netengine.RoutingKey
	n uint64
}

func (k sessionKey) String() string {
	if k.n == 0 {
		return k.RoutingKey.String()
	}
	return k.RoutingKey.String() + "#" + strconv.FormatUint(k.n, 10)
}

// sessionShards is how many ways the session table is split.
const sessionShards = 16

// sessionTable is the engine's sharded, keyed session registry. The
// key is the routing key of the initiating payload — entry color +
// origin address (netengine.Source.RoutingKey) — so every payload from
// one legacy client socket maps to one shard, and concurrent listener
// or ingest goroutines contend only on 1/sessionShards of the table.
type sessionTable struct {
	shards [sessionShards]tableShard
}

type tableShard struct {
	mu       sync.RWMutex
	sessions map[sessionKey]*session
}

func newSessionTable() *sessionTable {
	t := &sessionTable{}
	for i := range t.shards {
		t.shards[i].sessions = map[sessionKey]*session{}
	}
	return t
}

func (t *sessionTable) shardFor(key sessionKey) *tableShard {
	return &t.shards[(key.Hash()+uint32(key.n))%sessionShards]
}

// contains reports whether a live session is registered under key —
// the ingest lane classifier's "is this mid-session data" probe. A
// stale answer only misgrades a payload's priority, never its
// delivery.
func (t *sessionTable) contains(key sessionKey) bool {
	sh := t.shardFor(key)
	sh.mu.RLock()
	_, ok := sh.sessions[key]
	sh.mu.RUnlock()
	return ok
}

// remove unregisters s if it is still the session bound to key.
// Returning from remove guarantees no further enqueue can target s:
// enqueues hold the shard read lock while checking membership.
func (t *sessionTable) remove(key sessionKey, s *session) {
	sh := t.shardFor(key)
	sh.mu.Lock()
	if sh.sessions[key] == s {
		delete(sh.sessions, key)
	}
	sh.mu.Unlock()
}

// removeAll empties the table and returns every session that was live.
func (t *sessionTable) removeAll() []*session {
	var out []*session
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		for _, s := range sh.sessions {
			out = append(out, s)
		}
		sh.sessions = map[sessionKey]*session{}
		sh.mu.Unlock()
	}
	return out
}

// findAwaiting locates a live session blocked on (proto, msg),
// preferring one whose origin host matches ip — the routing rule for
// entry payloads that are not initiator requests (e.g. the control
// point's description GET in the reverse-UPnP cases). Ties are broken
// by the lowest session sequence number (oldest session), keeping the
// choice deterministic despite map iteration order. Sessions publish
// their awaited (proto, msg) via an atomic snapshot, so the scan never
// touches goroutine-confined session state; a stale match is harmless
// because the session re-checks on delivery.
func (t *sessionTable) findAwaiting(proto, msg, ip string) *session {
	var sameIP, fallback *session
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.RLock()
		for _, s := range sh.sessions {
			ak := s.await.Load()
			if ak == nil || ak.proto != proto || ak.msg != msg {
				continue
			}
			if s.origin.Addr.IP == ip {
				if sameIP == nil || s.seq < sameIP.seq {
					sameIP = s
				}
			} else if fallback == nil || s.seq < fallback.seq {
				fallback = s
			}
		}
		sh.mu.RUnlock()
	}
	if sameIP != nil {
		return sameIP
	}
	return fallback
}

// each visits every registered session under its shard's read lock.
// fn must be fast and must only touch the session's published state
// (immutable fields and the wait-free recorder), never its
// goroutine-confined fields.
func (t *sessionTable) each(fn func(*session)) {
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.RLock()
		for _, s := range sh.sessions {
			fn(s)
		}
		sh.mu.RUnlock()
	}
}

// live counts registered sessions.
func (t *sessionTable) live() int {
	n := 0
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.RLock()
		n += len(sh.sessions)
		sh.mu.RUnlock()
	}
	return n
}
