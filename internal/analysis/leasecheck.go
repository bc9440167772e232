package analysis

import (
	"go/ast"
)

// Module-internal package paths the analyzers key on. The analyzers are
// project-specific by design: they check Starlink's own ownership
// protocol, not a general Go idiom.
const (
	netapiPath  = "starlink/internal/netapi"
	messagePath = "starlink/internal/message"
	serrorsPath = "starlink/internal/serrors"
)

// LeaseCheck enforces the buffer-lease ownership protocol of
// internal/netapi (see netapi.Buffer):
//
//   - every buffer acquired via netapi.NewBuffer or Packet.TakeLease is
//     Released exactly once on every control-flow path, or ownership is
//     transferred (passed to a call, stored, sent, returned);
//   - no use of a lease after a definite Release, and no double
//     Release;
//   - the result of TakeLease is never discarded — dropping it leaks
//     the pool slot;
//   - a handler that retains Packet.Data beyond the callback (stores it
//     into a struct, channel or goroutine) must take the packet's lease
//     in the same function, otherwise the dispatching read loop will
//     reuse the backing buffer under the retained slice.
//
// Test files are skipped: the netapi tests deliberately double-release
// and hold leases across goroutines to probe the panic machinery.
var LeaseCheck = &Analyzer{
	Name:      "leasecheck",
	Doc:       "netapi buffer leases are released exactly once on every path and Packet.Data is not retained without a lease",
	SkipTests: true,
	Run:       runLeaseCheck,
}

var leaseOwnConfig = &ownConfig{
	isAcquire: func(pass *Pass, call *ast.CallExpr) (string, bool, bool) {
		if isPkgFunc(pass.TypesInfo, call, netapiPath, "NewBuffer") {
			return "buffer leased by netapi.NewBuffer", false, true
		}
		if _, ok := isMethodCall(pass.TypesInfo, call, netapiPath, "Packet", "TakeLease"); ok {
			// TakeLease is nil for heap-owned packets (Buf == nil), so
			// nil checks on the result refine the state.
			return "lease taken by Packet.TakeLease", true, true
		}
		return "", false, false
	},
	releaseMethod: "Release",
	releaseOn: func(pass *Pass, call *ast.CallExpr) (ast.Expr, bool) {
		return isMethodCall(pass.TypesInfo, call, netapiPath, "Buffer", "Release")
	},
}

func runLeaseCheck(pass *Pass) error {
	runOwnership(pass, leaseOwnConfig)

	for _, f := range pass.analyzedFiles() {
		// Discarded TakeLease results: `pkt.TakeLease()` as a bare
		// statement leaks the buffer with no variable to ever release.
		ast.Inspect(f, func(n ast.Node) bool {
			es, ok := n.(*ast.ExprStmt)
			if !ok {
				return true
			}
			call, ok := es.X.(*ast.CallExpr)
			if !ok {
				return true
			}
			if _, ok := isMethodCall(pass.TypesInfo, call, netapiPath, "Packet", "TakeLease"); ok {
				pass.Reportf(call.Pos(), "result of TakeLease discarded; the lease can never be released")
			}
			return true
		})
	}

	checkDataRetention(pass)
	return nil
}

// checkDataRetention flags handlers that store pkt.Data somewhere
// longer-lived than the callback frame without taking the lease.
func checkDataRetention(pass *Pass) {
	inspectBodies(pass, func(body *ast.BlockStmt) {
		// Packet-typed variables visible in this body.
		tookLease := false
		type retention struct {
			pos ast.Expr
			how string
		}
		var retained []retention

		isPacketData := func(e ast.Expr) bool {
			sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Data" {
				return false
			}
			tv, ok := pass.TypesInfo.Types[sel.X]
			if !ok {
				return false
			}
			p, n := namedType(tv.Type)
			return p == netapiPath && n == "Packet"
		}

		walkShallow(body, func(n ast.Node) {
			switch n := n.(type) {
			case *ast.CallExpr:
				if _, ok := isMethodCall(pass.TypesInfo, n, netapiPath, "Packet", "TakeLease"); ok {
					tookLease = true
				}
			case *ast.CompositeLit:
				// Skip the dispatch side: building a Packet literal with
				// Data set is how read loops hand data IN.
				if p, name := namedType(pass.TypesInfo.Types[n].Type); p == netapiPath && name == "Packet" {
					return
				}
				for _, el := range n.Elts {
					v := el
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						v = kv.Value
					}
					if isPacketData(v) {
						retained = append(retained, retention{v, "stored in a composite literal"})
					}
				}
			case *ast.SendStmt:
				if isPacketData(n.Value) {
					retained = append(retained, retention{n.Value, "sent on a channel"})
				}
			case *ast.AssignStmt:
				for i, r := range n.Rhs {
					if !isPacketData(r) {
						continue
					}
					if i < len(n.Lhs) && !isLocalLHS(pass, n.Lhs[i]) {
						retained = append(retained, retention{r, "assigned outside the callback frame"})
					}
				}
			case *ast.GoStmt:
				ast.Inspect(n.Call, func(m ast.Node) bool {
					if e, ok := m.(ast.Expr); ok && isPacketData(e) {
						retained = append(retained, retention{e, "captured by a goroutine"})
					}
					return true
				})
			}
		})

		if tookLease {
			return
		}
		for _, r := range retained {
			pass.Reportf(r.pos.Pos(), "Packet.Data %s without taking the packet's lease; the read loop will reuse the backing buffer", r.how)
		}
	})
}

// isLocalLHS reports whether the assignment target is a plain
// function-local variable (retention into locals is fine: the slice
// dies with the frame).
func isLocalLHS(pass *Pass, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false // field, index, deref: longer-lived than the frame
	}
	return id.Name == "_" || lhsVar(pass, e) != nil
}
