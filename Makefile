# Convenience targets mirroring CI (.github/workflows/ci.yml).

.PHONY: test smoke bench

# Tier-1 verification: build plus the full race-enabled test suite.
test:
	go build ./...
	go test -race -timeout 20m ./...

# CI's mesh-smoke job: the daemon path end to end, including the
# fault-injection / epoch-resync recovery variants (replay and
# snapshot-based) and short snapshot-, wire-decode and NDJSON-fold fuzz
# bursts.
smoke:
	go test -short -race -run 'TestMeshMatchesSerial/distance|TestMeshOverTCP|TestMeshNeighborGraph|TestMeshRecovery' ./internal/mesh/...
	go test -short -race -run 'TestMeshMatchesSerial/bandwidth' ./internal/mesh/...
	go test -run '^$$' -fuzz 'FuzzSnapshotDecode' -fuzztime 20s ./internal/snapshot/
	go test -run '^$$' -fuzz 'FuzzWireDecode' -fuzztime 10s ./internal/nexitwire/
	go test -run '^$$' -fuzz 'FuzzFoldAddLine' -fuzztime 10s ./internal/plot/

# Regenerate BENCH_runner.json the way its comment describes and append
# a PR-tagged history entry: make bench PR=4
bench:
	./scripts/bench.sh $(PR)
