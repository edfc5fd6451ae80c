module flexlog/benchmark

go 1.23

require flexlog v0.0.0

replace flexlog => ../
