module iotmap/benchmark

go 1.22

require iotmap v0.0.0

replace iotmap => ../
