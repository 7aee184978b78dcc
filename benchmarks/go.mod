// The benchmark is a module of its own (its own build file), nested in
// the repository it measures. The module path keeps the "repro/" prefix
// so the harness may import repro/internal/... — Go scopes internal
// packages by import path — and the replace directive binds "repro" to
// the checkout the benchmark sits in.
module repro/benchmarks

go 1.22

require repro v0.0.0

replace repro => ../
