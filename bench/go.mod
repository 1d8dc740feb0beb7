module github.com/faaspipe/faaspipe/bench

go 1.22

require github.com/faaspipe/faaspipe v0.0.0

replace github.com/faaspipe/faaspipe => ../
