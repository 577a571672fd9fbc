module dpc/bench

go 1.23

require dpc v0.0.0

replace dpc => ../
