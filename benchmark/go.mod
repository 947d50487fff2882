// The benchmark is a module of its own so that it builds from its own
// build file; the program under test is the parent directory's module.
module pier/benchmark

go 1.22

require pier v0.0.0

replace pier => ../
