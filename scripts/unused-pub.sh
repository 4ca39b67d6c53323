#!/usr/bin/env bash
# Lists every `pub fn` of the library code (crates/*/src and src/, the
# offline shims excluded) that nothing calls: its name has no whole-word
# use in any other Rust file of the repository (crates, src, tests,
# examples, prxbench) and none in its own file before `#[cfg(test)]`.
# Comment lines and `fn <name>` definitions do not count as uses.
#
# Exits 1 if a reported name is not on ALLOW, so public surface without a
# caller cannot grow back unnoticed. Run from anywhere in the repository:
#
#   scripts/unused-pub.sh
set -eu
cd "$(dirname "$0")/.."

# Public names that only tests call, kept on purpose:
# - ring_count: its own test checks that rings are pruned;
# - semantically_contained: an oracle that tests compare against;
# - explain_system: why-provenance for TP∩ answers, to be wired to a
#   caller (ROADMAP.md).
ALLOW=" ring_count semantically_contained explain_system "

SEARCH=(crates src tests examples prxbench)
unlisted=0
while IFS= read -r file; do
    # Library part of the file: everything before the first top-level
    # `#[cfg(test)]`.
    test_line=$(grep -n -m1 '^#\[cfg(test)\]' "$file" | cut -d: -f1)
    test_line=${test_line:-999999999}
    for name in $(head -n "$((test_line - 1))" "$file" |
        sed -n 's/^[[:space:]]*pub fn \([A-Za-z_][A-Za-z0-9_]*\).*/\1/p' | sort -u); do
        uses=$(grep -rnw --include='*.rs' --exclude-dir=target -e "$name" "${SEARCH[@]}" |
            grep -v -E "^[^:]+:[0-9]+:[[:space:]]*//" |
            grep -v -E "fn ${name}\b" |
            awk -F: -v own="$file" -v lim="$test_line" '$1 != own || $2 < lim' |
            wc -l)
        if [ "$uses" -eq 0 ]; then
            case "$ALLOW" in
            *" $name "*) echo "kept    $file: $name" ;;
            *)
                echo "UNUSED  $file: $name"
                unlisted=1
                ;;
            esac
        fi
    done
done < <(find crates/*/src src -name '*.rs' -not -path 'crates/shims/*' | sort)
exit "$unlisted"
