#!/usr/bin/env bash
# Docs-freshness check: fails when the documentation layer drifts from the
# code. Two invariants:
#
#   1. ARCHITECTURE.md mentions every package under internal/ — adding a
#      package without placing it on the map is a CI failure.
#   2. docs/API.md mentions every HTTP route registered in
#      internal/server/http.go and every route cmd/quickselrouter/router.go
#      registers by hand — adding or renaming an endpoint of either daemon
#      without documenting it is a CI failure.
#
# Run from the repository root: ./ci/check_docs.sh
set -u

fail=0

if [ ! -f ARCHITECTURE.md ]; then
    echo "ci/check_docs.sh: ARCHITECTURE.md is missing" >&2
    exit 1
fi
if [ ! -f docs/API.md ]; then
    echo "ci/check_docs.sh: docs/API.md is missing" >&2
    exit 1
fi

# 1. Every internal package appears in ARCHITECTURE.md.
for dir in internal/*/; do
    pkg=$(basename "$dir")
    if ! grep -q "internal/$pkg" ARCHITECTURE.md; then
        echo "ARCHITECTURE.md does not mention internal/$pkg" >&2
        fail=1
    fi
done

# 2. Every registered route appears in docs/API.md. Routes are the
# 'METHOD /path' strings of quickseld's route table (and its hand-added
# mux.HandleFunc calls) in internal/server/http.go, plus the
# HandleFunc("METHOD /path" literals of cmd/quickselrouter/router.go; the
# router's other routes come from quickseld's table.
method='(GET|POST|PUT|DELETE|PATCH)'
routes=$(grep -ohE "\"$method [^\" ]+\"" internal/server/http.go | tr -d '"' | sort -u)
if [ -z "$routes" ]; then
    echo "ci/check_docs.sh: found no registered routes in internal/server (pattern drift?)" >&2
    fail=1
fi
router_routes=$(grep -ohE "HandleFunc\(\"$method [^\" ]+\"" cmd/quickselrouter/router.go | sed -E 's/^HandleFunc\("//; s/"$//' | sort -u)
if [ -z "$router_routes" ]; then
    echo "ci/check_docs.sh: found no hand-registered routes in cmd/quickselrouter (pattern drift?)" >&2
    fail=1
fi
routes=$(printf '%s\n%s\n' "$routes" "$router_routes" | sort -u)
while IFS= read -r route; do
    path=${route#* }
    if ! grep -qF "$path" docs/API.md; then
        echo "docs/API.md does not mention route '$route'" >&2
        fail=1
    fi
done <<EOF
$routes
EOF

if [ "$fail" -ne 0 ]; then
    echo "ci/check_docs.sh: documentation is stale (see above)" >&2
    exit 1
fi
echo "ci/check_docs.sh: ARCHITECTURE.md and docs/API.md cover all packages and routes"
