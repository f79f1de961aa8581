module github.com/mitos-project/mitos/benchmark

go 1.22

require github.com/mitos-project/mitos v0.0.0

replace github.com/mitos-project/mitos => ../
