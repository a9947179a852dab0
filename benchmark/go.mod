module fairhealth/benchmark

go 1.22

require fairhealth v0.0.0

replace fairhealth => ../
