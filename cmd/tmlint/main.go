// Command tmlint runs the repo's static-analysis suite (internal/lint)
// over the named packages. It is the CI gate for the runtime's
// concurrency invariants: shard-lock ordering, atomic-field discipline,
// no blocking inside transactions, monotonic measurement timing,
// cache-line padding, and nil-guarded hooks — plus the flow-sensitive
// clock–version protocol checks built on internal/lint/flow (bumporder,
// commitstamp, extrecheck), which machine-check the
// serializability invariants the commit/rollback/extension paths rest
// on.
//
// Usage:
//
//	tmlint ./...
//	tmlint -tests ./...
//	tmlint -json ./... > tmlint.json
//	tmlint -list
//	tmlint -analyzers monoclock,padcheck ./internal/core/
//
// -tests also loads _test.go files (in-package and external test
// packages), closing the loader's historical test-tree blind spot; CI
// runs with it on. -json emits a machine-readable report on stdout:
// one object with ok/packages/analyzers and one entry per violation
// carrying the analyzer, file:line:col, message, and the //tm:
// directives in effect at the reported line.
//
// Exit status: 0 if clean, 1 if violations were reported, 2 on usage or
// load errors.
package main

import (
	"os"

	"tmsync/internal/lint"
)

func main() {
	os.Exit(lint.Run(os.Args[1:], os.Stdout, os.Stderr))
}
