# Developer entry points. Everything here is plain `go` — the Makefile
# only names the invocations CI and the docs refer to.

GO ?= go

.PHONY: build test race loc bench-baseline bench-baseline-check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -short ./...

# Code size, the number CHANGES.md records for every change:
# non-blank, non-comment lines of non-test Go files, per package and in
# total.
loc:
	@total=0; for pkg in $$($(GO) list -f '{{.ImportPath}}:{{.Dir}}' ./...); do \
		n=$$(find "$${pkg#*:}" -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | \
			grep -v '^\s*$$' | grep -v '^\s*//' | wc -l); \
		total=$$((total + n)); printf '%6d  %s\n' "$$n" "$${pkg%%:*}"; \
	done; printf '%6d  total\n' "$$total"

# Regenerate the committed benchmark trajectory (BENCH_fig6.json):
# the reduced fig6 sweep through the portfolio and through the
# symmetry-quotient abstraction. Run this deliberately — on a quiet machine — when a
# change intentionally moves the numbers, and commit the result.
bench-baseline:
	$(GO) run ./cmd/verdict-bench -baseline write -baseline-file BENCH_fig6.json

# The gate CI runs: re-measure and compare against the committed
# baseline (exit 1 on verdict drift or >4x total-time regression).
bench-baseline-check:
	$(GO) run ./cmd/verdict-bench -baseline compare -baseline-file BENCH_fig6.json
