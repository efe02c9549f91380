void spin(stream_in<32> in, stream_out<32> out) {
  for (uint32 i = 0; i < 3; i++) {
    uint32 v = stream_read(in);
    uint32 acc = 0;
    for (uint32 j = 0; j < 20; j++) {
      acc = acc + v;
    }
    stream_write(out, acc);
  }
}
