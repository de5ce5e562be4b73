(** Line-oriented SQL-over-socket frontend of the query service.

    One request per line; plain lines are SQL, backslash lines are
    commands ([\quit], [\cache], [\metrics], [\refresh], [\shutdown]).
    Responses are single lines:

    {v
    OK hit|revalidated|miss plan=<ms> exec=<ms> rows=<n> steps=<k> aggs=<v>,...
    ERR <message>
    v}

    Connections are served on system threads; query parallelism comes from
    the service's worker-domain pool, where the handler threads' requests
    are executed. *)

val serve : ?host:string -> port:int -> Service.t -> unit
(** Bind [host] (default 127.0.0.1) : [port], accept until a client sends
    [\shutdown], then close every live connection, join the handler
    threads, and return. The caller still owns the service (call
    {!Service.shutdown} afterwards). Raises [Unix.Unix_error] when the
    address is unavailable. *)
