package analysis

import (
	"go/ast"
)

// NestedIsoAnalyzer checks for the documented deadlock at
// core.Stack.IsolatedAsync's comment: a computation must never spawn
// another one synchronously. A Stack.Isolated / External call reachable
// from a handler body, a Fork closure or an isolated root blocks the
// parent computation on a child that may need microprotocols the parent
// holds — under cc.Serial (and whenever the specs overlap) that is a
// guaranteed deadlock. The fix is always IsolatedAsync: caused
// computations start as new external events.
var NestedIsoAnalyzer = &Analyzer{
	Name: "nestediso",
	Doc:  "computations must not spawn other computations synchronously",
	Run:  runNestedIso,
}

func runNestedIso(pass *Pass) {
	m := pass.Model
	visited := map[ast.Node]bool{}
	for _, cc := range m.ComputationContexts() {
		label := cc.Label
		m.WalkReachable(cc.Fn, visited, func(n ast.Node, _ *FuncNode) {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return
			}
			recv, name, isCore := coreFunc(m.calleeFunc(call))
			if !isCore || recv != "Stack" {
				return
			}
			switch name {
			case "Isolated", "External":
				pass.Reportf(call.Pos(),
					"synchronous Stack.%s inside %s deadlocks once the specs overlap (the parent computation holds what the child waits for) — use IsolatedAsync",
					name, label)
			}
		})
	}
}
