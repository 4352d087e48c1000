// Package phy implements the forward-link physical layer of the
// full-duplex backscatter system: OOK modulation with configurable
// modulation depth (the carrier never fully extinguishes, keeping the tag
// powered and the feedback channel alive), the RFID-style FM0 line code
// (plus Manchester), chunked frame formats with per-chunk CRCs
// (the hooks instantaneous feedback attaches to), and preamble
// detection/symbol timing.
package phy

// CRC-8/ATM (poly 0x07, init 0x00) protects headers and per-chunk
// integrity; CRC-16/CCITT-FALSE (poly 0x1021, init 0xFFFF) protects whole
// frames. Both are table-driven.

var crc8Table = makeCRC8Table(0x07)

func makeCRC8Table(poly byte) [256]byte {
	var t [256]byte
	for i := 0; i < 256; i++ {
		c := byte(i)
		for b := 0; b < 8; b++ {
			if c&0x80 != 0 {
				c = c<<1 ^ poly
			} else {
				c <<= 1
			}
		}
		t[i] = c
	}
	return t
}

// CRC8 returns the CRC-8/ATM checksum of data.
func CRC8(data []byte) byte {
	var c byte
	for _, b := range data {
		c = crc8Table[c^b]
	}
	return c
}

// UpdateCRC8 continues a CRC-8 computation from a previous value.
func UpdateCRC8(crc byte, data []byte) byte {
	for _, b := range data {
		crc = crc8Table[crc^b]
	}
	return crc
}

var crc16Table = makeCRC16Table(0x1021)

func makeCRC16Table(poly uint16) [256]uint16 {
	var t [256]uint16
	for i := 0; i < 256; i++ {
		c := uint16(i) << 8
		for b := 0; b < 8; b++ {
			if c&0x8000 != 0 {
				c = c<<1 ^ poly
			} else {
				c <<= 1
			}
		}
		t[i] = c
	}
	return t
}

// CRC16 returns the CRC-16/CCITT-FALSE checksum of data.
func CRC16(data []byte) uint16 {
	return UpdateCRC16(0xFFFF, data)
}

// UpdateCRC16 continues a CRC-16 computation from a previous value.
// Start from 0xFFFF for CCITT-FALSE.
func UpdateCRC16(crc uint16, data []byte) uint16 {
	for _, b := range data {
		crc = crc<<8 ^ crc16Table[byte(crc>>8)^b]
	}
	return crc
}
