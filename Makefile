# Convenience entry points; scripts/ holds the real logic so CI and
# humans run exactly the same commands.

.PHONY: test race lint lint-ignores ci

test:
	go test ./...

race:
	go test -race ./...

# Static analysis: FlowDiff's own analyzer suite (determinism
# invariants; see DESIGN.md "Determinism invariants").
# -time reports per-analyzer wall clock so a slow check is visible the
# day it regresses, not when CI starts timing out.
lint:
	go run ./cmd/flowdifflint -time ./...

# Suppression audit: list every //lint:ignore with its reason and fail
# on unknown analyzer names.
lint-ignores:
	go run ./cmd/flowdifflint -ignores ./...

# Full verification gate: vet + build + race tests + bench smoke.
ci:
	./scripts/ci.sh
