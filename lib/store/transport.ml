type conn = {
  send : string -> unit;
  recv : unit -> (string, string) result;
  close : unit -> unit;
  peer : string;
}

let loopback ~handle =
  let pending = Queue.create () in
  { send = (fun req -> Queue.push (handle req) pending);
    recv =
      (fun () ->
        match Queue.pop pending with
        | resp -> Ok resp
        | exception Queue.Empty -> Error "loopback: recv before send");
    close = (fun () -> Queue.clear pending);
    peer = "loopback" }

let unix_connect path =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX path)
   with exn ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise exn);
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  { send = (fun body -> Proto.write_message oc body);
    recv = (fun () -> Proto.read_message ic);
    (* closing the out channel flushes it (ignoring errors) and closes
       the shared fd; closing twice is a no-op *)
    close = (fun () -> close_out_noerr oc);
    peer = "unix:" ^ path }
