#!/usr/bin/env sh
# Unlinked-code gate (CI `test` job). Every non-test function of this
# module outside bench/ must be linked into some binary: a cmd/*, an
# examples/* or the bench. The script builds all of them without
# inlining (-gcflags=all=-l, so a function inlined everywhere still
# leaves a symbol), reads their symbols with `go tool nm`, and compares
# them with the function declarations of the files `go list` compiles
# for this GOOS/GOARCH. A declaration no binary links fails the gate
# unless scripts/unlinked.allow names it.
#
# Symbols are normalised to the declarations' spelling: a package main
# is named by its directory, `(*T).M` becomes `T.M`, generic shapes
# (`ship[go.shape.int]`, `(*memo[...]).get`) lose their brackets,
# closures (`.func1`, `.deferwrap1`, `.gowrap1`) count for their
# enclosing function, and assembly stubs lose their `.abi0`.
#
# Run it from the root of the repository: sh scripts/unlinked.sh
# It needs no network. The output lists each unlinked function as
# `<package>.<[Type.]Name>  <file>:<line>  <lines>`.
set -eu

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

mkdir -p "$tmp/cmd" "$tmp/examples"
go build -gcflags=all=-l -o "$tmp/cmd/" ./cmd/...
go build -gcflags=all=-l -o "$tmp/examples/" ./examples/...
(cd bench && go build -gcflags=all=-l -o "$tmp/bench" .)

# Linked symbols, one normalised name a line. The bench's own package
# main is outside the scanned tree, so its main. symbols are dropped.
for bin in "$tmp"/cmd/* "$tmp"/examples/* "$tmp/bench"; do
    case $bin in
    "$tmp/bench") main= ;;
    *) main="repro/${bin#"$tmp/"}" ;;
    esac
    go tool nm "$bin" | awk -v main="$main" '
        $2 != "T" && $2 != "t" { next }
        {
            s = $0
            sub(/^ *[0-9a-f]+ +[Tt] /, "", s)
            if (s ~ /^main\./) {
                if (main == "") next
                s = main substr(s, 5)
            }
            if (s !~ /^repro[\/.]/ || s ~ /\.\.dict\./) next
            while (gsub(/\[[^][]*\]/, "", s)) {}
            sub(/\.abi0$/, "", s)
            sub(/-fm$/, "", s)
            sub(/\.(func|deferwrap|gowrap)[0-9].*$/, "", s)
            sub(/\(\*/, "", s)
            sub(/\)\./, ".", s)
            print s
        }'
done | sort -u > "$tmp/linked"

# Declared functions: `<package>.<[Type.]Name>  <file>:<line>  <lines>`
# for every top-level func of a compiled non-test file, init excepted.
go list -f '{{$d := .Dir}}{{$p := .ImportPath}}{{range .GoFiles}}{{$p}} {{$d}}/{{.}}{{"\n"}}{{end}}' ./... |
while read -r pkg file; do
    awk -v pkg="$pkg" -v file="${file#"$PWD/"}" '
        function flush() {
            if (name != "") printf "%s\t%s:%d\t%d\n", name, file, start, FNR - start + 1
            name = ""
        }
        name != "" && /^}/ { flush(); next }
        /^func / {
            d = substr($0, 6)
            recv = ""
            if (d ~ /^\(/) {
                recv = substr(d, 2, index(d, ")") - 2)
                d = substr(d, index(d, ")") + 2)
                sub(/\[.*/, "", recv)
                sub(/.* /, "", recv)
                sub(/^\*/, "", recv)
                recv = recv "."
            }
            match(d, /^[A-Za-z0-9_]+/)
            fn = substr(d, 1, RLENGTH)
            if (fn == "init" && recv == "") next
            name = pkg "." recv fn
            start = FNR
            # A one-line func, or an assembly stub with no body.
            if ($0 ~ /}$/ || $0 !~ /[{,(]$/) flush()
        }' "$file"
done | sort -k1,1 > "$tmp/declared"

# Allowlist: the first field of each non-comment line, one function
# each.
grep -v '^[[:space:]]*\(#\|$\)' scripts/unlinked.allow | awk '{print $1}' > "$tmp/allow"

awk -F '\t' -v linked="$tmp/linked" -v allow="$tmp/allow" '
    BEGIN {
        while ((getline s < linked) > 0) have[s] = 1
        while ((getline s < allow) > 0) ok[s] = 1
    }
    !($1 in have) && !($1 in ok) { print; n++; lines += $3 }
    END {
        if (n) {
            printf "unlinked.sh: %d function(s), %d line(s) no binary links; delete them, move them beside the tests that use them, or name them in scripts/unlinked.allow\n", n, lines > "/dev/stderr"
            exit 1
        }
    }' "$tmp/declared"

# An allowlist entry that has become linked, or names nothing, is stale.
awk -F '\t' '{print $1}' "$tmp/declared" > "$tmp/names"
stale=$(awk -v linked="$tmp/linked" -v names="$tmp/names" '
    BEGIN {
        while ((getline s < linked) > 0) have[s] = 1
        while ((getline s < names) > 0) decl[s] = 1
    }
    !($0 in decl) || ($0 in have) { print }' "$tmp/allow")
if [ -n "$stale" ]; then
    echo "unlinked.sh: stale scripts/unlinked.allow entries (linked, or declared nowhere):" >&2
    echo "$stale" >&2
    exit 1
fi
echo "unlinked.sh: every non-test function outside bench/ is linked or allowlisted"
