void loop(stream_in<32> in, stream_out<32> out) {
  uint32 buf[8];
  for (uint32 i = 0; i < 8; i++) {
    uint32 v = stream_read(in);
    assert(v > 0);
    buf[i & 7] = v;
  }
  for (uint32 j = 0; j < 8; j++) {
    uint32 w = buf[j & 7];
    stream_write(out, w);
  }
}
