#!/usr/bin/env bash
# Lint gate + analyzer self-check. Usage: lint_selfcheck.sh [tests|clean|fixtures]
# with no argument running all three parts in order. CI runs the parts as
# separate named steps; locally, the no-argument form is the full gate.
#
# tests:    the analysis framework's own tests (goldens, suppression
#           semantics, analyzer interaction, the compiler escape gate, and
#           the annotation ratchet: TestAnnotationRatchet holds the
#           //lint:allow, //hot:allow and //ckpt:skip counts outside
#           internal/analysis to ci/annotations.txt, in tier-1).
#
# clean:    the repository itself must be clean (exit 0, no output); simlint
#           runs every analyzer on every package, so a host-clock read or an
#           order-sensitive map walk anywhere in the module either carries a
#           reasoned //lint:allow or fails here. -json keeps the output
#           machine-readable so the GitHub Actions problem matcher
#           (.github/simlint-matcher.json) annotates any finding in the PR.
#
# fixtures: the driver, run end-to-end over every fixture package in ONE
#           invocation, must find exactly what the consolidated JSON golden
#           says. One consolidated run (instead of one `go run` per fixture)
#           keeps the gate fast and additionally pins a whole-program
#           property: loading all fixtures into a single Program must not let
#           one fixture's directives or call graph bleed into another's
#           findings — the consolidated output must stay
#           exactly the union of the per-fixture goldens that the unit tests
#           check in isolation.
set -euo pipefail
cd "$(dirname "$0")/.."

part="${1:-all}"

run_tests() {
    echo "== simlint framework tests =="
    go test ./internal/analysis/
}

run_clean() {
    echo "== simlint: repository must be clean with every analyzer on every package =="
    go run ./cmd/simlint -json ./...
    echo "clean"
}

run_fixtures() {
    echo "== simlint self-check: consolidated fixture run vs JSON golden =="
    local fixtures=()
    for f in internal/analysis/testdata/src/*/; do
        fixtures+=("./${f%/}")
    done
    local golden="internal/analysis/testdata/golden/selfcheck.json"
    set +e
    local got status
    got=$(go run ./cmd/simlint -json "${fixtures[@]}")
    status=$?
    set -e
    if [ "$status" -ne 1 ]; then
        echo "FAIL: simlint exited $status on the fixture set (expected 1: findings present)"
        exit 1
    fi
    if ! diff -u "$golden" <(printf '%s\n' "$got"); then
        echo "FAIL: consolidated fixture findings differ from $golden"
        exit 1
    fi
    echo "ok ($(wc -l < "$golden") findings)"
}

case "$part" in
tests) run_tests ;;
clean) run_clean ;;
fixtures) run_fixtures ;;
all)
    run_tests
    run_clean
    run_fixtures
    ;;
*)
    echo "usage: $0 [tests|clean|fixtures]" >&2
    exit 2
    ;;
esac
