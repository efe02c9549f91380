void loop(stream_in<32> in, stream_out<32> out) {
  for (uint32 i = 0; i < 8; i++) {
    uint32 v = stream_read(in);
    assert(v > 0);
    stream_write(out, v);
  }
}
