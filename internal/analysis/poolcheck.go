package analysis

import (
	"go/ast"
)

// PoolCheck enforces the pooled-message ownership protocol of
// internal/message: every message acquired from the pool
// (message.NewPooled) reaches a Release or transfers ownership (is
// passed on, stored, returned) on every control-flow path, and is never
// used after a definite Release. A message's fields are its own and end
// with its Release, so they need no tracking of their own.
//
// Ownership transfer is generous by design: returning or storing a
// message makes the recipient responsible. What the analyzer catches
// is the historical bug class where an early error return drops a
// freshly acquired message on the floor, quietly shrinking the pool
// under load.
//
// Test files are skipped: message tests probe double-release recycling
// deliberately.
var PoolCheck = &Analyzer{
	Name:      "poolcheck",
	Doc:       "pooled messages (message.NewPooled) are released or transferred on every path",
	SkipTests: true,
	Run:       runPoolCheck,
}

func runPoolCheck(pass *Pass) error {
	cfg := &ownConfig{
		isAcquire: func(pass *Pass, call *ast.CallExpr) (string, bool, bool) {
			if isPkgFunc(pass.TypesInfo, call, messagePath, "NewPooled") {
				return "pooled message from message.NewPooled", false, true
			}
			return "", false, false
		},
		releaseMethod: "Release",
		releaseOn: func(pass *Pass, call *ast.CallExpr) (ast.Expr, bool) {
			return isMethodCall(pass.TypesInfo, call, messagePath, "Message", "Release")
		},
	}
	runOwnership(pass, cfg)
	return nil
}
