# Convenience wrappers around dune.  `make ci` is the gate a PR must pass:
# no build artifacts snuck into the index, build, full test suite (whose
# bench smoke run holds every deterministic bench gate), one bench process
# that adds the host-timed engine gate, and the chaos soak.

.PHONY: all build test bench-smoke bench soak ci check-tracked-artifacts clean

all: build

check-tracked-artifacts:
	@bad=$$(git ls-files | grep -E '^_build/|\.install$$' || true); \
	if [ -n "$$bad" ]; then \
	  echo "error: build artifacts are tracked by git (use .gitignore):"; \
	  echo "$$bad" | head -20; \
	  exit 1; \
	fi

build:
	dune build

test: build
	dune runtest --force

# Every JSON section at reduced size, in one process: the runner writes
# the JSON, reads it back and holds every gate to it (bench/main.ml,
# `--list` prints them).  --host-timed adds the one host-timed gate:
# engine events/sec no more than 25% below the committed
# BENCH_results.json.
bench-smoke: build
	dune exec bench/main.exe -- --json-smoke /tmp/bench_smoke.json --host-timed

bench: build
	dune exec bench/main.exe -- --json

# Chaos soak: the full fault matrix (every scenario x every applicable
# fault kind, alone and as a storm), deterministic per seed, over seeds
# 42..42+n-1 with n = SOAK_ITERS (default 10, about 30 s).  Ten seeds,
# not one: races such as a send yielding across its channel's retirement
# (cluster3/evict-storm lost a datagram at seeds 46 and 47 while only
# seed 42 ran) show up only at some seeds.  A red run prints the first
# failing seed and its replay command.
soak: build
	SOAK_ITERS=$${SOAK_ITERS:-10} dune exec xenloopsim -- chaos

ci: check-tracked-artifacts build test bench-smoke soak
	@echo "ci: artifact check + build + tests + bench smoke (every bench gate, engine speed included) + chaos soak all green"

clean:
	dune clean
