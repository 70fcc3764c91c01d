// The benchmark is its own module so that it builds, vets and tests apart
// from the code it measures; the import path keeps the repro/ prefix, which
// is what lets it import repro/internal/... through the replace below.
module repro/benchmark

go 1.22

require repro v0.0.0

replace repro => ../
