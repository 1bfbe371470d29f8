module ligra/benchmark

go 1.23

require ligra v0.0.0

replace ligra => ../
