#!/usr/bin/env bash
# Fails (exit 1) when code under src/ or tools/ reads an environment
# variable other than REACH_THREADS. Every settable value needs tests and
# benchmarks behind it, so a new environment switch (say, one that changes
# which kernel a query runs) must be a deliberate change to this list, not
# a quiet getenv. Flags: any getenv/secure_getenv call whose argument is
# not the literal "REACH_THREADS", and any use of environ. Run from the
# repository root (CI does; the CTest entry sets WORKING_DIRECTORY).
set -u

allowed='REACH_THREADS'
fail=0

# Every getenv-family call; only the allowed literal argument passes.
while IFS= read -r hit; do
  if ! grep -qE "getenv[[:space:]]*\([[:space:]]*\"${allowed}\"[[:space:]]*\)" \
      <<<"$hit"; then
    echo "environment read outside the allowed list: $hit" >&2
    fail=1
  fi
done < <(grep -rnE '\b(secure_)?getenv\b' src tools)

# The raw environment block bypasses getenv altogether.
while IFS= read -r hit; do
  echo "raw environment access: $hit" >&2
  fail=1
done < <(grep -rnE '\b(environ|__environ|_environ)\b' src tools)

if [ "$fail" -ne 0 ]; then
  echo "environment read check FAILED (allowed: ${allowed})" >&2
else
  echo "environment read check OK (allowed: ${allowed})"
fi
exit "$fail"
