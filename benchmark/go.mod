// The benchmark is a module of its own, built against the repository it
// sits in: its import path is under infosleuth/, so it may import the
// repository's internal packages.
module infosleuth/benchmark

go 1.22

require infosleuth v0.0.0

replace infosleuth => ../
