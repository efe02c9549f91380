void ramp(stream_in<32> in, stream_out<32> out) {
  uint32 n = stream_read(in);
  for (uint32 i = 0; i < 16; i++) {
    assert(i < 16);
    i = i + 1;
    if (n != 0) {
      stream_write(out, n + i);
    }
  }
}
